// Package jobs implements the paper's "cloning in production" use-case
// (Figure 1b): at job launch, the scheduler captures the job and its
// parameters as a *submission clone* — a serializable snapshot that can
// be stored and replayed later, offline, under far more aggressive FPSpy
// configurations than production would tolerate. The user's run itself
// proceeds untouched, with zero overhead.
package jobs

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	fpspy "repro"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Typed validation errors for clones arriving from untrusted bytes
// (Decode). Both are wrapped, so callers match with errors.Is.
var (
	// ErrNoProgram reports a clone with no program image (or an empty
	// one): replaying it would crash the kernel spawn path.
	ErrNoProgram = errors.New("jobs: clone has no program image")
	// ErrMemBytes reports a clone whose memory request is negative or
	// absurd — beyond MaxMemBytes.
	ErrMemBytes = errors.New("jobs: clone memory request out of range")
)

// MaxMemBytes bounds the memory request Decode accepts (4 GiB). Guest
// memory is materialised page by page as the guest writes it, but the
// page table still scales with the declared size, so an absurd MemBytes
// from a hostile encoding must be rejected before it reaches
// RunProduction or Replay.
const MaxMemBytes = 4 << 30

// Job is a submission clone: everything needed to re-run a submission
// bit-identically — the binary (program image) and the environment the
// scheduler would have launched it with.
type Job struct {
	// Name identifies the submission.
	Name string
	// Program is the application binary image.
	Program *isa.Program
	// Env is the launch environment.
	Env map[string]string
	// MemBytes is the requested memory.
	MemBytes int
}

// Capture builds a submission clone at the moment of launch.
func Capture(name string, prog *isa.Program, env map[string]string, memBytes int) *Job {
	dupEnv := make(map[string]string, len(env))
	for k, v := range env {
		dupEnv[k] = v
	}
	return &Job{Name: name, Program: prog, Env: dupEnv, MemBytes: memBytes}
}

// Encode serializes the clone for storage (the paper's offline-analysis
// hand-off).
func (j *Job) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(j); err != nil {
		return nil, fmt.Errorf("jobs: encode %s: %w", j.Name, err)
	}
	return buf.Bytes(), nil
}

// Decode reconstructs a submission clone. The input is untrusted (it
// typically arrives over the fpspyd wire), so the decoded clone is
// validated before it is returned: garbage that happens to gob-decode
// does not flow onward into RunProduction or Replay.
func Decode(data []byte) (*Job, error) {
	var j Job
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&j); err != nil {
		return nil, fmt.Errorf("jobs: decode: %w", err)
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return &j, nil
}

// Validate checks the structural invariants a replayable clone must
// hold. Decode applies it to everything it accepts; Capture output is
// valid by construction when given a real program.
func (j *Job) Validate() error {
	if j.Program == nil || len(j.Program.Insts) == 0 {
		return fmt.Errorf("%w (clone %q)", ErrNoProgram, j.Name)
	}
	if j.MemBytes < 0 || j.MemBytes > MaxMemBytes {
		return fmt.Errorf("%w: %d (clone %q)", ErrMemBytes, j.MemBytes, j.Name)
	}
	return nil
}

// RunProduction executes the job exactly as submitted: no FPSpy, no
// overhead — "from the user's perspective, nothing would have changed".
func (j *Job) RunProduction() (*fpspy.Result, error) {
	return fpspy.Run(j.Program, fpspy.Options{
		NoSpy:    true,
		MemBytes: j.MemBytes,
		Env:      j.Env,
	})
}

// Replay executes the clone offline under an arbitrary FPSpy
// configuration — typically aggressive individual-mode tracing that
// production could never afford.
func (j *Job) Replay(cfg fpspy.Config) (*fpspy.Result, error) {
	return j.ReplayObs(cfg, nil)
}

// ReplayObs is Replay with an observability registry threaded through
// the run — the fpspyd daemon uses it so offline passes feed the same
// /metrics surface as the serving path. A nil registry is Replay.
func (j *Job) ReplayObs(cfg fpspy.Config, m *obs.Metrics) (*fpspy.Result, error) {
	return fpspy.Run(j.Program, fpspy.Options{
		Config:   cfg,
		MemBytes: j.MemBytes,
		Env:      j.Env,
		Obs:      m,
	})
}

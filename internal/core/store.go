package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// ThreadKey identifies one traced thread.
type ThreadKey struct {
	// PID and TID identify the thread within the simulated kernel.
	PID, TID int
}

// String renders the key the way FPSpy names trace files.
func (k ThreadKey) String() string { return fmt.Sprintf("%d.%d.fpemon", k.PID, k.TID) }

// Store collects FPSpy's output: one binary individual-mode trace per
// thread and one aggregate record per thread. It stands in for the
// per-thread log files of the real tool.
type Store struct {
	buffers    map[ThreadKey]*bytes.Buffer
	writers    map[ThreadKey]*trace.Writer
	sink       func(ThreadKey) io.Writer
	aggregates []trace.Aggregate
	events     []trace.MonitorEvent
	flushErrs  []error
	// shadowSites accumulates per-site shadow attribution rows merged
	// across threads (FPE_SHADOW); nil until the first merge.
	shadowSites map[uint64]analysis.RootCauseSite
	// Faults counts every SIGFPE FPSpy handled (recorded or not).
	Faults uint64
	// Recorded counts records actually written.
	Recorded uint64
	// StepAsides counts processes where FPSpy got out of the way.
	StepAsides int
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		buffers: make(map[ThreadKey]*bytes.Buffer),
		writers: make(map[ThreadKey]*trace.Writer),
	}
}

// NewStoreWithSink creates a store whose per-thread trace bytes go to
// writers produced by sink instead of in-memory buffers. Used to model
// trace files on failing media; Records/RawTrace are unavailable for
// sink-backed threads.
func NewStoreWithSink(sink func(ThreadKey) io.Writer) *Store {
	s := NewStore()
	s.sink = sink
	return s
}

// writer returns (creating if needed) the trace writer for a thread.
func (s *Store) writer(key ThreadKey) *trace.Writer {
	if w, ok := s.writers[key]; ok {
		return w
	}
	var w *trace.Writer
	if s.sink != nil {
		w = trace.NewWriter(s.sink(key))
	} else {
		buf := &bytes.Buffer{}
		s.buffers[key] = buf
		w = trace.NewWriter(buf)
	}
	s.writers[key] = w
	return w
}

// recordFlushErr remembers a trace flush failure so the run result can
// surface it instead of dropping records silently.
func (s *Store) recordFlushErr(key ThreadKey, err error) {
	s.flushErrs = append(s.flushErrs, fmt.Errorf("fpspy: flushing trace %v: %w", key, err))
}

// FlushErrs returns trace flush failures recorded during teardown.
func (s *Store) FlushErrs() []error { return s.flushErrs }

// addEvent appends a monitor-log entry.
func (s *Store) addEvent(ev trace.MonitorEvent) { s.events = append(s.events, ev) }

// MonitorEvents returns the monitor log in event order.
func (s *Store) MonitorEvents() []trace.MonitorEvent {
	return append([]trace.MonitorEvent(nil), s.events...)
}

// MonitorLog renders the monitor log in its on-disk text form.
func (s *Store) MonitorLog() string { return trace.RenderMonitorLog(s.events) }

// SignalFights totals, per contested signal, how many registration
// attempts aggressive mode absorbed (one signal-fight event per attempt).
func (s *Store) SignalFights() map[string]uint64 {
	out := map[string]uint64{}
	for _, ev := range s.events {
		if ev.Kind == trace.EventSignalFight {
			out[ev.Signal]++
		}
	}
	return out
}

// mergeShadowSites folds one thread's shadow attribution rows into the
// store (sum/max merge per address, see analysis.MergeRootCauseSite).
func (s *Store) mergeShadowSites(sites []analysis.RootCauseSite) {
	if len(sites) == 0 {
		return
	}
	if s.shadowSites == nil {
		s.shadowSites = make(map[uint64]analysis.RootCauseSite, len(sites))
	}
	for _, site := range sites {
		s.shadowSites[site.Addr] = analysis.MergeRootCauseSite(s.shadowSites[site.Addr], site)
	}
}

// ShadowSites returns the merged shadow attribution rows ordered by
// address (empty when FPE_SHADOW was off or nothing shadow-executed).
func (s *Store) ShadowSites() []analysis.RootCauseSite {
	out := make([]analysis.RootCauseSite, 0, len(s.shadowSites))
	for addr, site := range s.shadowSites {
		site.Addr = addr
		out = append(out, site)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// addAggregate appends a thread's aggregate record.
func (s *Store) addAggregate(a trace.Aggregate) {
	s.aggregates = append(s.aggregates, a)
}

// Aggregates returns all aggregate-mode records, ordered by pid then tid.
func (s *Store) Aggregates() []trace.Aggregate {
	out := append([]trace.Aggregate(nil), s.aggregates...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// Threads lists the threads with individual-mode traces.
func (s *Store) Threads() []ThreadKey {
	keys := make([]ThreadKey, 0, len(s.buffers))
	for k := range s.buffers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].PID != keys[j].PID {
			return keys[i].PID < keys[j].PID
		}
		return keys[i].TID < keys[j].TID
	})
	return keys
}

// Records decodes the trace of one thread.
func (s *Store) Records(key ThreadKey) ([]trace.Record, error) {
	w, ok := s.writers[key]
	if !ok {
		return nil, fmt.Errorf("fpspy: no trace for %v", key)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return trace.Decode(s.buffers[key].Bytes())
}

// AllRecords decodes and concatenates every thread's trace into one
// slice sized up front.
func (s *Store) AllRecords() ([]trace.Record, error) {
	keys := s.Threads()
	total := 0
	for _, key := range keys {
		if err := s.writers[key].Flush(); err != nil {
			return nil, err
		}
		total += s.buffers[key].Len()
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]trace.Record, 0, total/trace.RecordSize)
	for _, key := range keys {
		var err error
		if out, err = trace.AppendDecode(out, s.buffers[key].Bytes()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RawTrace returns the encoded bytes of one thread's trace (what would
// be the on-disk file).
func (s *Store) RawTrace(key ThreadKey) ([]byte, error) {
	w, ok := s.writers[key]
	if !ok {
		return nil, fmt.Errorf("fpspy: no trace for %v", key)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return s.buffers[key].Bytes(), nil
}

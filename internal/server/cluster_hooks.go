package server

// The cluster surface: the small set of exported hooks internal/cluster
// builds its peer fabric on. Everything here reuses the daemon's
// existing job table, content-addressed cache, and singleflight
// discipline — a peer-computed outcome enters through the same settle
// path a local pass does, so cluster-wide dedup inherits the
// single-node invariants instead of re-implementing them.

import (
	"context"
	"errors"
	"fmt"
	"time"

	fpspy "repro"
)

// SubmitResult is the exported view of an admitted submission.
type SubmitResult struct {
	// ID is the daemon-assigned job ID.
	ID string
	// State is the job's state at admission (done/failed on a settled
	// cache hit, queued otherwise).
	State State
	// CacheHit reports whether the submission attached to an existing
	// cache entry instead of scheduling a new pass.
	CacheHit bool
	// Key is the submission's content address.
	Key string
}

// Submit admits one submission programmatically — the same path the
// HTTP handler takes, minus rate limiting (callers gate with Allow) and
// minus the submission count: a cluster router counts each client
// submission once with CountSubmission, wherever it ends up running.
func (s *Server) Submit(client, name string, blob []byte, cfg fpspy.Config) (SubmitResult, error) {
	rec, err := s.submit(client, name, blob, cfg)
	if err != nil {
		return SubmitResult{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubmitResult{ID: rec.id, State: rec.state, CacheHit: rec.cacheHit, Key: rec.key}, nil
}

// ObserveSubmit records the latency of one POST /v1/jobs served by a
// cluster router, which answers the endpoint itself.
func (s *Server) ObserveSubmit(start time.Time) {
	if sv := s.obs.ServerMetricsOrNil(); sv != nil {
		s.observeNS(&sv.SubmitNS, start)
	}
}

// Allow consults the per-client rate limiter: callers that bypass the
// HTTP submission handler (the cluster router) apply the same admission
// policy. The returned duration is the suggested wait on denial.
func (s *Server) Allow(client string) (bool, time.Duration) {
	return s.lim.allow(client)
}

// WaitOutcome blocks until the job's pass settles and returns its
// outcome (or the pass error). It unblocks early on context
// cancellation and on a drain that strands the job unstarted.
func (s *Server) WaitOutcome(ctx context.Context, id string) (*Outcome, error) {
	s.mu.Lock()
	rec, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: unknown job %q", id)
	}
	select {
	case <-rec.entry.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.stopc:
		s.mu.Lock()
		settled := rec.entry.settled
		s.mu.Unlock()
		if !settled {
			return nil, fmt.Errorf("server: job %s interrupted by drain", id)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.entry.err != nil {
		return nil, rec.entry.err
	}
	return rec.entry.out, nil
}

// JobState reports a job's lifecycle state.
func (s *Server) JobState(id string) (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return "", fmt.Errorf("server: unknown job %q", id)
	}
	return rec.state, nil
}

// CachedOutcome reports whether key has a settled cache entry, and its
// outcome or error message when it does. Peers use it for the
// cache-everywhere lookup: a clone studied anywhere is servable here.
func (s *Server) CachedOutcome(key string) (out *Outcome, errMsg string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, exists := s.cache[key]
	if !exists || !e.settled {
		return nil, "", false
	}
	if e.err != nil {
		return nil, e.err.Error(), true
	}
	return e.out, "", true
}

// InstallOutcome publishes an externally computed outcome (a peer's
// pass, or a stolen job's result) under key. The first settle wins: an
// already-settled entry is left untouched and false is returned. An
// unsettled entry — including one whose primary still waits in a shard
// queue — settles immediately, finalizing its waiters; the dispatcher
// skips settled primaries, so the local pass never double-runs. With no
// entry present, a settled one is created so future submissions hit.
func (s *Server) InstallOutcome(key string, out *Outcome, errMsg string) bool {
	var err error
	if errMsg != "" {
		err = errors.New(errMsg)
	}
	s.mu.Lock()
	e, exists := s.cache[key]
	if exists && e.settled {
		s.mu.Unlock()
		return false
	}
	if !exists {
		e = &cacheEntry{key: key, done: make(chan struct{})}
		s.cache[key] = e
	}
	s.mu.Unlock()
	s.settle(e, out, err)
	return true
}

// StolenJob is one queued-but-unstarted primary handed to a peer by
// StealPending. The stealer replays the clone and returns the outcome
// via InstallOutcome on the victim.
type StolenJob struct {
	// ID, Name, and Client identify the job on the victim.
	ID, Name, Client string
	// Key is the content address the outcome must settle under.
	Key string
	// Blob is the encoded clone exactly as submitted.
	Blob []byte
	// Config is the FPSpy configuration to replay under.
	Config fpspy.Config
}

// StealPending removes up to max queued-but-unstarted primaries from
// the shard queues for execution elsewhere. The cache entries stay
// registered (waiters keep waiting); each stolen entry settles when the
// stealer's outcome arrives via InstallOutcome, or re-enters the queue
// via RequeuePending when the caller's lease on it expires.
func (s *Server) StealPending(max int) []StolenJob {
	if max <= 0 {
		return nil
	}
	var out []StolenJob
	s.mu.Lock()
	defer s.mu.Unlock()
	sv := s.obs.ServerMetricsOrNil()
	for _, q := range s.shards {
	drain:
		for len(out) < max {
			select {
			case rec := <-q:
				if sv != nil {
					sv.QueueDepth.Add(-1)
				}
				if rec.entry.settled {
					continue // already finalized; nothing to hand out
				}
				rec.entry.stolen = true
				out = append(out, StolenJob{
					ID: rec.id, Name: rec.name, Client: rec.client,
					Key: rec.key, Blob: rec.blob, Config: rec.cfg,
				})
			default:
				break drain
			}
		}
		if len(out) >= max {
			break
		}
	}
	return out
}

// RequeuePending re-admits a stolen job whose stealer never returned:
// the primary goes back to its shard queue for local execution. It
// reports whether a re-enqueue happened (false when the entry settled
// in the meantime, is not stolen, or the queue is full — in the last
// case the job stays stolen and the caller retries later).
func (s *Server) RequeuePending(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cache[key]
	if !ok || e.settled || !e.stolen || e.primary == nil {
		return false
	}
	select {
	case s.shardOf(key) <- e.primary:
		e.stolen = false
		if sv := s.obs.ServerMetricsOrNil(); sv != nil {
			sv.QueueDepth.Add(1)
		}
		return true
	default:
		return false
	}
}

// QueueLen is the number of jobs currently waiting in shard queues —
// the load signal gossiped to peers for work stealing.
func (s *Server) QueueLen() int {
	n := 0
	for _, q := range s.shards {
		n += len(q)
	}
	return n
}

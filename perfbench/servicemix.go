package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	fpspy "repro"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

const (
	ringNodes      = 3
	submitsPerRnd  = 100
	coldEvery      = 4        // one submission in four is cold
	cloneMemBytes  = 16 << 20 // the clone's declared guest memory
	serviceTimeout = 2 * time.Minute
)

// serviceConfig is what every service-mix submission replays under:
// individual mode on all events, so each pass traps, records and
// streams a monitor log.
var serviceConfig = fpspy.Config{Mode: fpspy.ModeIndividual, ExceptList: fpspy.AllEvents}

// serviceMix is the study service under load: an in-process 3-node
// cluster ring on loopback, one pass worker per node, and closed-loop
// clients (at most nproc, at most two) that submit through POST /v1/jobs
// and stream each result to its last line. One submission in four is
// cold: a NAS guest captured under a fresh environment value, so a new
// content address that runs a pass, often on a peer it is forwarded to.
// The rest resubmit a warmed set and are answered from the local cache.
type serviceMix struct {
	seed int64
	rng  *rand.Rand
	exp  *expectations[serviceOut]

	nas     []guest
	warmSet []warmClone
	builds  []float64
	ring    *ring
	seq     int // cold clones made so far; numbers their environment values

	// Traced run state.
	base           []programCounts
	baseSrv        []serverCounts
	passNS         []float64 // pass host time per cold pass, via the pass hook
	passMu         sync.Mutex
	measuring      atomic.Bool
	forwardsCached atomic.Int64
	coldSteps      atomic.Uint64
}

type warmClone struct {
	kernel string
	name   string
	blob   []byte
}

// serviceOut is what a result stream's summary must reproduce.
type serviceOut struct {
	Steps, WallCycles uint64
	ExitCode          int
	EventSet          uint64
	Records           int
	Aggregates        int
	Events            int
}

func summaryOut(s *server.Summary) serviceOut {
	return serviceOut{s.Steps, s.WallCycles, s.ExitCode, s.EventSet, s.Records, s.Aggregates, s.Events}
}

func newServiceMix(seed int64, record bool) (*serviceMix, error) {
	e, err := loadExpectations[serviceOut]("service-mix", record)
	if err != nil {
		return nil, err
	}
	return &serviceMix{seed: seed, rng: rand.New(rand.NewSource(seed)), exp: e}, nil
}

// serviceClients is the number of closed-loop clients: two, but never
// more than the host has processors.
func serviceClients() int { return min(2, nproc()) }

func (s *serviceMix) clients() int { return serviceClients() }

// A 30 s run makes 2,000 or more cold submissions and three times as
// many cached ones, so p99 keeps ten samples beyond it; a shorter run
// goes on until it does.
func (s *serviceMix) tailPct() float64 { return 99 }

func (s *serviceMix) jobsPerRound() int { return submitsPerRnd }

// warm has nothing to do: every set-up boots a fresh ring, so warming
// its cache is part of set-up.
func (s *serviceMix) warm() error { return nil }

func (s *serviceMix) setup(traced bool) error {
	t0 := time.Now()
	s.nas = s.nas[:0]
	for _, w := range workload.NAS() {
		s.nas = append(s.nas, guest{name: w.Meta.Name, prog: w.Build(workload.SizeLarge)})
	}
	s.builds = append(s.builds, float64(time.Since(t0).Nanoseconds())/1e6)

	s.warmSet = s.warmSet[:0]
	for _, g := range s.nas {
		j := jobs.Capture(g.name+"-warm", g.prog, map[string]string{"PERFBENCH_SET": "warm"}, cloneMemBytes)
		blob, err := j.Encode()
		if err != nil {
			return err
		}
		// Cross-check: the service must reproduce a direct run.
		res, err := fpspy.Run(j.Program, fpspy.Options{Config: serviceConfig, MemBytes: j.MemBytes, Env: j.Env})
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", j.Name, err)
		}
		recs, err := res.Records()
		if err != nil {
			return fmt.Errorf("direct run of %s: %w", j.Name, err)
		}
		direct := serviceOut{res.Steps, res.WallCycles, res.ExitCode, uint64(res.EventSet()),
			len(recs), len(res.Aggregates()), len(res.Store.MonitorEvents())}
		if err := s.exp.check(g.name, direct); err != nil {
			return fmt.Errorf("direct run: %w", err)
		}
		s.warmSet = append(s.warmSet, warmClone{kernel: g.name, name: j.Name, blob: blob})
	}

	s.measuring.Store(false)
	r, err := bootRing(traced, s.onPass)
	if err != nil {
		return err
	}
	s.ring = r
	// Warm the cache: every warm clone through every node, so each node
	// holds it locally (the owner ran it; the others installed the
	// forwarded outcome).
	ctx, cancel := context.WithTimeout(context.Background(), serviceTimeout)
	defer cancel()
	for _, w := range s.warmSet {
		for i := range r.nodes {
			cl := r.nodeClient(i)
			resp, err := cl.SubmitBlobContext(ctx, w.name, w.blob, serviceConfig)
			if err != nil {
				return fmt.Errorf("warm %s via node %d: %w", w.name, i, err)
			}
			sum, err := cl.StreamResultContext(ctx, resp.ID, nil)
			if err != nil {
				return fmt.Errorf("warm %s via node %d: %w", w.name, i, err)
			}
			if err := s.exp.check(w.kernel, summaryOut(sum)); err != nil {
				return fmt.Errorf("warm-up against direct run: %w", err)
			}
		}
	}
	s.base = s.base[:0]
	s.baseSrv = s.baseSrv[:0]
	for _, n := range r.nodes {
		s.base = append(s.base, countsOf(n.om))
		s.baseSrv = append(s.baseSrv, serverCountsOf(n.om))
	}
	s.passNS = s.passNS[:0]
	s.forwardsCached.Store(0)
	s.coldSteps.Store(0)
	s.measuring.Store(true)
	return nil
}

// onPass runs on a node's dispatcher just before a pass starts (traced
// run only) and times the pass until its outcome settles.
func (s *serviceMix) onPass(srv *server.Server, id string, wg *sync.WaitGroup) {
	if !s.measuring.Load() {
		return
	}
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.WaitOutcome(context.Background(), id); err != nil {
			return
		}
		d := float64(time.Since(start).Nanoseconds())
		s.passMu.Lock()
		s.passNS = append(s.passNS, d)
		s.passMu.Unlock()
	}()
}

// serviceOp is one submission of a round.
type serviceOp struct {
	cold   bool
	kernel int    // cold: index into nas
	env    string // cold: the fresh environment value
	warm   int    // cached: index into warm
}

// nextOps draws the next round's op list from the seed: in each block
// of coldEvery submissions one, at a random place, is cold.
func (s *serviceMix) nextOps() []serviceOp {
	ops := make([]serviceOp, 0, submitsPerRnd)
	for len(ops) < submitsPerRnd {
		coldAt := s.rng.Intn(coldEvery)
		for i := 0; i < coldEvery; i++ {
			if i == coldAt {
				s.seq++
				ops = append(ops, serviceOp{cold: true, kernel: s.rng.Intn(len(s.nas)),
					env: fmt.Sprintf("%d-%d", s.seed, s.seq)})
			} else {
				ops = append(ops, serviceOp{warm: s.rng.Intn(len(s.warmSet))})
			}
		}
	}
	return ops
}

func (s *serviceMix) round(l *layers, log *opLog) {
	ops := s.nextOps()
	ctx, cancel := context.WithTimeout(context.Background(), serviceTimeout)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := s.ring.clients[c]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if ops[i].cold {
					s.cold(ctx, l, log, c, cl, ops[i])
				} else {
					s.cached(ctx, l, log, c, cl, s.warmSet[ops[i].warm])
				}
			}
		}(c)
	}
	wg.Wait()
}

// cold captures a fresh clone, submits it and streams its result.
func (s *serviceMix) cold(ctx context.Context, l *layers, log *opLog, c int, cl *client.Client, op serviceOp) {
	g := s.nas[op.kernel]
	name := g.name + "-" + op.env
	var blob []byte
	var err error
	l.do("jobs.encode", c, func() {
		j := jobs.Capture(name, g.prog, map[string]string{"PERFBENCH_CLONE": op.env}, cloneMemBytes)
		blob, err = j.Encode()
	})
	if err != nil {
		log.fail(fmt.Errorf("%s: encode: %w", name, err))
		return
	}
	log.op(classCold, func() error {
		var resp *server.SubmitResponse
		l.do("client.submit.cold", c, func() { resp, err = cl.SubmitBlobContext(ctx, name, blob, serviceConfig) })
		if err != nil {
			return fmt.Errorf("%s: submit: %w", name, err)
		}
		if resp.CacheHit {
			return fmt.Errorf("%s: a fresh clone was answered from the cache", name)
		}
		var sum *server.Summary
		l.do("client.stream.cold", c, func() { sum, err = cl.StreamResultContext(ctx, resp.ID, nil) })
		if err != nil {
			return fmt.Errorf("%s: stream: %w", name, err)
		}
		if l != nil {
			s.coldSteps.Add(sum.Steps)
		}
		return s.exp.check(g.name, summaryOut(sum))
	})
}

// cached resubmits a warm clone and streams its result.
func (s *serviceMix) cached(ctx context.Context, l *layers, log *opLog, c int, cl *client.Client, w warmClone) {
	log.op(classCached, func() error {
		var resp *server.SubmitResponse
		var err error
		l.do("client.submit.cached", c, func() { resp, err = cl.SubmitBlobContext(ctx, w.name, w.blob, serviceConfig) })
		if err != nil {
			return fmt.Errorf("%s: submit: %w", w.name, err)
		}
		if !resp.CacheHit {
			// Not served from this node's cache, although set-up
			// installed the clone on every node: the node forwarded it.
			s.forwardsCached.Add(1)
			return fmt.Errorf("%s: a warmed clone was not answered from the local cache", w.name)
		}
		var sum *server.Summary
		l.do("client.stream.cached", c, func() { sum, err = cl.StreamResultContext(ctx, resp.ID, nil) })
		if err != nil {
			return fmt.Errorf("%s: stream: %w", w.name, err)
		}
		return s.exp.check(w.kernel, summaryOut(sum))
	})
}

func (s *serviceMix) layerMetrics(l *layers, rounds int) map[string]float64 {
	n := float64(rounds)
	var pc programCounts
	var sc serverCounts
	for i, nd := range s.ring.nodes {
		c := countsOf(nd.om)
		c.sub(s.base[i])
		pc.add(c)
		v := serverCountsOf(nd.om)
		v.sub(s.baseSrv[i])
		sc.add(v)
	}
	s.passMu.Lock()
	passP50 := median(s.passNS) / 1e6
	s.passMu.Unlock()
	submits := n * submitsPerRnd
	steps := float64(s.coldSteps.Load())
	out := map[string]float64{
		"workload.build_ms":       median(s.builds),
		"jobs.encode_ms":          l.ms("jobs.encode") / n,
		"client.submit_ms.cold":   l.ms("client.submit.cold") / n,
		"client.submit_ms.cached": l.ms("client.submit.cached") / n,
		"client.stream_ms.cold":   l.ms("client.stream.cold") / n,
		"client.stream_ms.cached": l.ms("client.stream.cached") / n,
		"server.submit_ns.p50":    histP50(sc.submitNS),
		"server.result_ns.p50":    histP50(sc.resultNS),
		"server.cache_hit_ratio":  float64(sc.hits) / float64(sc.hits+sc.misses),
		"server.shed":             float64(sc.shed) / n,
		"server.rate_limited":     float64(sc.rateLimited) / n,
		"study.pass_host_ms.p50":  passP50,
		"cluster.forwards":        float64(sc.forwards) / n,
		"cluster.forwards.cached": float64(s.forwardsCached.Load()) / n,
		"cluster.rpcs_per_submit": float64(sc.forwards+sc.retries+sc.hedges) / submits,
		"cluster.forward_ns.p50":  histP50(sc.forwardNS),
		"cluster.retries":         float64(sc.retries) / n,
		"cluster.hedges":          float64(sc.hedges) / n,
		"cluster.rpc_errors":      float64(sc.rpcErrors) / n,
		"kernel.retired":          steps / n,
	}
	pc.perRound(out, n)
	// Every service-mix pass replays without a shadow sink and with
	// superblocks on (serviceConfig), so all its fast-path steps could
	// use superblocks.
	if !serviceConfig.NoSuperblock && serviceConfig.ShadowPrec == 0 {
		out["machine.fast_share"] = float64(pc.fast) / steps
	}
	return out
}

// shape describes; a forwarded cached submission already failed its op.
func (s *serviceMix) shape(*opLog) []string {
	return []string{fmt.Sprintf("cached submissions forwarded to a peer: %d (predicted 0)", s.forwardsCached.Load())}
}

func (s *serviceMix) close() {
	if s.ring != nil {
		s.ring.close()
		s.ring = nil
	}
}

func (s *serviceMix) writeExpectations(dir string) error { return s.exp.write(dir) }

// serverCounts are the daemon and cluster counts of one node's
// registry.
type serverCounts struct {
	hits, misses, shed, rateLimited      uint64
	forwards, retries, hedges, rpcErrors uint64
	submitNS, resultNS, forwardNS        obs.HistogramSnapshot
}

func serverCountsOf(m *obs.Metrics) serverCounts {
	if m == nil {
		return serverCounts{}
	}
	h := m.Snapshot().Histograms
	return serverCounts{
		hits: m.Server.CacheHits.Load(), misses: m.Server.CacheMisses.Load(),
		shed: m.Server.Shed.Load(), rateLimited: m.Server.RateLimited.Load(),
		forwards: m.Cluster.Forwards.Load(), retries: m.Cluster.Retries.Load(),
		hedges: m.Cluster.Hedges.Load(), rpcErrors: m.Cluster.RPCErrors.Load(),
		submitNS: h["server.http.submit-ns"], resultNS: h["server.http.result-ns"],
		forwardNS: h["cluster.forward-ns"],
	}
}

func (c *serverCounts) add(o serverCounts) {
	c.hits += o.hits
	c.misses += o.misses
	c.shed += o.shed
	c.rateLimited += o.rateLimited
	c.forwards += o.forwards
	c.retries += o.retries
	c.hedges += o.hedges
	c.rpcErrors += o.rpcErrors
	c.submitNS = mergeHists(c.submitNS, o.submitNS)
	c.resultNS = mergeHists(c.resultNS, o.resultNS)
	c.forwardNS = mergeHists(c.forwardNS, o.forwardNS)
}

// sub removes the set-up traffic counted in base.
func (c *serverCounts) sub(base serverCounts) {
	c.hits -= base.hits
	c.misses -= base.misses
	c.shed -= base.shed
	c.rateLimited -= base.rateLimited
	c.forwards -= base.forwards
	c.retries -= base.retries
	c.hedges -= base.hedges
	c.rpcErrors -= base.rpcErrors
	c.submitNS = subHist(c.submitNS, base.submitNS)
	c.resultNS = subHist(c.resultNS, base.resultNS)
	c.forwardNS = subHist(c.forwardNS, base.forwardNS)
}

// ring is the in-process cluster: every node a daemon wrapped in a
// cluster.Node, served over HTTP on a loopback listener.
type ring struct {
	nodes   []*ringNode
	clients []*client.Client
	serving sync.WaitGroup
	passes  sync.WaitGroup // pass timers started by the pass hook
}

type ringNode struct {
	url  string
	om   *obs.Metrics
	srv  *server.Server
	node *cluster.Node
	hs   *http.Server
	// Transport of the benchmark's client bound to this node: one
	// connection, since each client is one closed loop.
	tr *http.Transport
}

// bootRing starts the nodes. When traced, each gets an obs registry and
// onPass is called before every pass it runs.
func bootRing(traced bool, onPass func(*server.Server, string, *sync.WaitGroup)) (r *ring, err error) {
	r = &ring{}
	var lns []net.Listener
	defer func() {
		if err != nil {
			// Listeners not yet handed to a serving node.
			for _, ln := range lns[len(r.nodes):] {
				ln.Close()
			}
			r.close()
		}
	}()
	urls := make([]string, ringNodes)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return r, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
		urls[i] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		rn := &ringNode{url: urls[i]}
		so := server.Options{Workers: 1}
		var self atomic.Pointer[server.Server]
		if traced {
			rn.om = obs.New(obs.Options{TraceCapacity: 1024})
			so.Obs = rn.om
			so.BeforeRun = func(id string) { onPass(self.Load(), id, &r.passes) }
		}
		if rn.srv, err = server.New(so); err != nil {
			return r, err
		}
		self.Store(rn.srv)
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		rn.node, err = cluster.NewNode(cluster.Options{
			Self: urls[i], Peers: peers, Server: rn.srv, Obs: rn.om,
			// No background health or steal loop: every peer stays up
			// for the whole run, and the traffic stays the clients'.
			ProbeInterval: -1,
		})
		if err != nil {
			rn.srv.Shutdown() //nolint:errcheck // nothing was queued
			return r, err
		}
		rn.hs = &http.Server{Handler: rn.node}
		rn.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		r.nodes = append(r.nodes, rn)
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			rn.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
		}()
	}
	for c := 0; c < serviceClients(); c++ {
		r.clients = append(r.clients, r.nodeClient(c%ringNodes))
	}
	return r, nil
}

// nodeClient is a client bound to node i over its one-connection
// transport.
func (r *ring) nodeClient(i int) *client.Client {
	c := client.New(r.nodes[i].url, fmt.Sprintf("perfbench-%d", i))
	c.HTTPClient = &http.Client{Transport: r.nodes[i].tr}
	return c
}

// close stops the nodes, the HTTP servers and the daemons, and waits
// for every goroutine the ring started. Nodes stop first, so no forward
// is in flight when the servers stop serving peers.
func (r *ring) close() {
	for _, n := range r.nodes {
		n.node.Close()
	}
	for _, n := range r.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.hs.Shutdown(ctx); err != nil {
			n.hs.Close() //nolint:errcheck // forced after a stuck graceful stop
		}
		cancel()
		n.tr.CloseIdleConnections()
	}
	r.serving.Wait()
	for _, n := range r.nodes {
		n.srv.Shutdown() //nolint:errcheck // no state file, so nothing to persist
	}
	r.passes.Wait()
}

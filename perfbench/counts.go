package main

import (
	"repro/internal/kernel"
	"repro/internal/obs"
)

const mib = 1 << 20

// programCounts are the counts the program's own obs.Metrics keep, read
// at the layer boundaries they instrument.
type programCounts struct {
	fast, precise    uint64 // kernel: fast-path and precise-path steps
	flops64, flops32 uint64 // machine: SDE-style FLOP group
	sigfpe, sigtrap  uint64 // kernel: signal deliveries
	faults, records  uint64 // spy: SIGFPEs handled, trace records written
	protocol         obs.HistogramSnapshot
	shadowOps        uint64
}

// countsOf reads m; a nil registry reads all zero.
func countsOf(m *obs.Metrics) programCounts {
	if m == nil {
		return programCounts{}
	}
	return programCounts{
		fast:      m.Kernel.FastSteps.Load(),
		precise:   m.Kernel.PreciseSteps.Load(),
		flops64:   m.Flop.TotalByPrec(0),
		flops32:   m.Flop.TotalByPrec(1),
		sigfpe:    m.Kernel.Signals[kernel.SIGFPE].Load(),
		sigtrap:   m.Kernel.Signals[kernel.SIGTRAP].Load(),
		faults:    m.Spy.Faults.Load(),
		records:   m.Spy.Records.Load(),
		protocol:  m.Snapshot().Histograms["spy.protocol-ns"],
		shadowOps: m.Shadow.Ops.Load(),
	}
}

func (c *programCounts) add(o programCounts) {
	c.fast += o.fast
	c.precise += o.precise
	c.flops64 += o.flops64
	c.flops32 += o.flops32
	c.sigfpe += o.sigfpe
	c.sigtrap += o.sigtrap
	c.faults += o.faults
	c.records += o.records
	c.protocol = mergeHists(c.protocol, o.protocol)
	c.shadowOps += o.shadowOps
}

// sub removes the counts in base (traffic before the measured rounds).
func (c *programCounts) sub(base programCounts) {
	c.fast -= base.fast
	c.precise -= base.precise
	c.flops64 -= base.flops64
	c.flops32 -= base.flops32
	c.sigfpe -= base.sigfpe
	c.sigtrap -= base.sigtrap
	c.faults -= base.faults
	c.records -= base.records
	c.protocol = subHist(c.protocol, base.protocol)
	c.shadowOps -= base.shadowOps
}

// perRound writes the counts as per-layer metrics, per round of n.
func (c programCounts) perRound(out map[string]float64, n float64) {
	out["kernel.fast_steps"] = float64(c.fast) / n
	out["kernel.precise_steps"] = float64(c.precise) / n
	out["softfloat.flops.f64"] = float64(c.flops64) / n
	out["softfloat.flops.f32"] = float64(c.flops32) / n
	out["kernel.signals.sigfpe"] = float64(c.sigfpe) / n
	out["kernel.signals.sigtrap"] = float64(c.sigtrap) / n
	out["core.faults"] = float64(c.faults) / n
	out["core.records"] = float64(c.records) / n
	out["core.protocol_ns.p50"] = histP50(c.protocol)
	out["core.protocol_ns.sum"] = float64(c.protocol.Sum) / n
	out["shadow.ops"] = float64(c.shadowOps) / n
}

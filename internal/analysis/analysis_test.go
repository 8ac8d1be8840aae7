package analysis

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/softfloat"
	"repro/internal/trace"
)

func mkRecs(spec map[string]int) []trace.Record {
	var out []trace.Record
	for mnem, n := range spec {
		op, ok := isa.OpcodeByName(mnem)
		if !ok {
			panic("bad mnemonic " + mnem)
		}
		for i := 0; i < n; i++ {
			out = append(out, trace.Record{Opcode: uint16(op), Rip: uint64(0x400000 + int(op)*4)})
		}
	}
	return out
}

func TestRankByFormOrdersDescending(t *testing.T) {
	recs := mkRecs(map[string]int{"mulsd": 50, "addsd": 100, "divsd": 10})
	r := RankByForm(recs)
	if len(r) != 3 {
		t.Fatalf("len = %d", len(r))
	}
	if r[0].Key != "addsd" || r[0].Count != 100 {
		t.Errorf("top = %+v", r[0])
	}
	if r[2].Key != "divsd" {
		t.Errorf("bottom = %+v", r[2])
	}
	if TotalEvents(r) != 160 {
		t.Errorf("total = %d", TotalEvents(r))
	}
}

func TestCoverageCount(t *testing.T) {
	entries := []RankEntry{{"a", 990}, {"b", 5}, {"c", 5}}
	if got := CoverageCount(entries, 0.99); got != 1 {
		t.Errorf("coverage(0.99) = %d, want 1", got)
	}
	if got := CoverageCount(entries, 1.0); got != 3 {
		t.Errorf("coverage(1.0) = %d, want 3", got)
	}
	if got := CoverageCount(nil, 0.5); got != 0 {
		t.Errorf("coverage(empty) = %d", got)
	}
}

func TestFeasibilityModel(t *testing.T) {
	// Heavy skew: one hot site takes nearly all events. Patching wins
	// when per-event emulation is cheaper than the trap cost.
	byAddr := []RankEntry{{Key: "0x400010", Count: 1_000_000}, {Key: "0x400020", Count: 10}}
	byForm := []RankEntry{{Key: "mulsd", Count: 1_000_000}, {Key: "divsd", Count: 10}}
	rep := Feasibility(byAddr, byForm, 50_000, 150, 4_000)
	if !rep.PatchWins {
		t.Errorf("patching should win: %+v", rep)
	}
	if rep.Sites99 != 1 || rep.Forms99 != 1 {
		t.Errorf("coverage: %+v", rep)
	}
	// Without locality (every event on its own site) patching loses.
	var flat []RankEntry
	for i := 0; i < 1000; i++ {
		flat = append(flat, RankEntry{Key: FormatAddr(uint64(i)), Count: 1})
	}
	rep2 := Feasibility(flat, byForm, 50_000, 150, 4_000)
	if rep2.PatchWins {
		t.Errorf("patching should lose without locality: %+v", rep2)
	}
	// Empty input.
	rep3 := Feasibility(nil, nil, 1, 1, 1)
	if rep3.TotalEvents != 0 || rep3.PatchWins {
		t.Errorf("empty: %+v", rep3)
	}
}

func TestRankByAddress(t *testing.T) {
	recs := []trace.Record{
		{Rip: 0x400010}, {Rip: 0x400010}, {Rip: 0x400020},
	}
	r := RankByAddress(recs)
	if len(r) != 2 || r[0].Key != "0x400010" || r[0].Count != 2 {
		t.Errorf("rank = %+v", r)
	}
}

func TestRateSeries(t *testing.T) {
	hz := 1000.0 // 1000 cycles per second for easy numbers
	recs := []trace.Record{
		{Time: 100}, {Time: 200}, {Time: 900}, // second 0: 3 events
		{Time: 1500}, // second 1: 1 event
	}
	pts := RateSeries(recs, 1.0, hz)
	if len(pts) != 2 {
		t.Fatalf("bins = %d", len(pts))
	}
	if pts[0].EventsPerSec != 3 || pts[1].EventsPerSec != 1 {
		t.Errorf("rates = %+v", pts)
	}
	if RateSeries(nil, 1, hz) != nil {
		t.Error("empty input should yield nil")
	}
}

func TestCumulative(t *testing.T) {
	recs := []trace.Record{{Time: 300}, {Time: 100}, {Time: 200}}
	pts := Cumulative(recs, 100)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].TimeSec != 1 || pts[0].Count != 1 || pts[2].Count != 3 {
		t.Errorf("cumulative = %+v", pts)
	}
}

func TestFilterEvent(t *testing.T) {
	recs := []trace.Record{
		{Event: softfloat.FlagInexact},
		{Event: softfloat.FlagInvalid},
		{Event: softfloat.FlagInexact},
	}
	if got := len(FilterEvent(recs, softfloat.FlagInexact)); got != 2 {
		t.Errorf("filtered = %d", got)
	}
}

func TestFormsAcrossCodes(t *testing.T) {
	byCode := map[string][]trace.Record{
		"alpha": mkRecs(map[string]int{"addsd": 3, "mulsd": 1}),
		"beta":  mkRecs(map[string]int{"addsd": 2, "vdpps": 4}),
	}
	u := FormsAcrossCodes(byCode)
	if got := u.CodesByForm["addsd"]; len(got) != 2 {
		t.Errorf("addsd codes = %v", got)
	}
	if got := u.UniqueTo["beta"]; len(got) != 1 || got[0] != "vdpps" {
		t.Errorf("beta unique = %v", got)
	}
	if got := u.UniqueTo["alpha"]; len(got) != 1 || got[0] != "mulsd" {
		t.Errorf("alpha unique = %v", got)
	}
}

func TestCountByEvent(t *testing.T) {
	recs := []trace.Record{
		{Event: softfloat.FlagInexact},
		{Event: softfloat.FlagInexact},
		{Event: softfloat.FlagInvalid},
		{Event: softfloat.FlagDivideByZero},
	}
	counts := CountByEvent(recs)
	if len(counts) != 3 {
		t.Fatalf("classes = %d", len(counts))
	}
	// Priority order: Invalid first, Inexact last.
	if counts[0].Event != softfloat.FlagInvalid || counts[0].Count != 1 {
		t.Errorf("first = %+v", counts[0])
	}
	if counts[2].Event != softfloat.FlagInexact || counts[2].Count != 2 {
		t.Errorf("last = %+v", counts[2])
	}
	if CountByEvent(nil) != nil {
		t.Error("empty input should yield nil")
	}
}

func TestByThreadAndSpan(t *testing.T) {
	recs := []trace.Record{
		{TID: 1, Time: 50}, {TID: 2, Time: 10}, {TID: 1, Time: 90},
	}
	by := ByThread(recs)
	if len(by) != 2 || len(by[1]) != 2 || len(by[2]) != 1 {
		t.Errorf("by thread = %v", by)
	}
	first, last := Span(recs)
	if first != 10 || last != 90 {
		t.Errorf("span = %d..%d", first, last)
	}
	if f, l := Span(nil); f != 0 || l != 0 {
		t.Error("empty span")
	}
}

func TestStaticCoverageOf(t *testing.T) {
	sites := map[uint64]bool{0x400000: true, 0x400004: true, 0x400008: true, 0x40000c: true}
	recs := []trace.Record{
		{Rip: 0x400000}, {Rip: 0x400000}, {Rip: 0x400004}, // two covered sites
		{Rip: 0x500000}, // unknown: escaped the static analysis
	}
	cov := StaticCoverageOf(recs, sites)
	if cov.StaticSites != 4 || cov.DynamicSites != 3 {
		t.Errorf("sites = static %d dynamic %d, want 4/3", cov.StaticSites, cov.DynamicSites)
	}
	if cov.CoveredSites != 2 || cov.UnknownSites != 1 {
		t.Errorf("covered = %d unknown = %d, want 2/1", cov.CoveredSites, cov.UnknownSites)
	}
	if cov.SiteCoverage != 0.5 {
		t.Errorf("SiteCoverage = %v, want 0.5", cov.SiteCoverage)
	}
	if cov.EventCoverage != 0.75 { // 3 of 4 events at known sites
		t.Errorf("EventCoverage = %v, want 0.75", cov.EventCoverage)
	}

	empty := StaticCoverageOf(nil, nil)
	if empty.SiteCoverage != 0 || empty.EventCoverage != 0 || empty.DynamicSites != 0 {
		t.Errorf("empty coverage = %+v", empty)
	}
}

// TestBuildRootCauseTotalIsDeterministic: the report's float total must
// not depend on map iteration order, or the same pass reports different
// last bits from run to run.
func TestBuildRootCauseTotalIsDeterministic(t *testing.T) {
	var sites []RootCauseSite
	for i := 0; i < 32; i++ {
		sites = append(sites, RootCauseSite{
			Addr: uint64(0x400000 + 4*i), Op: "addsd", Count: 1,
			LocalUlps: float64(i+1) * 0.1 * float64(uint64(1)<<(i%7*8)),
		})
	}
	want := BuildRootCause(113, sites).TotalLocalUlps
	for i := 0; i < 50; i++ {
		if got := BuildRootCause(113, sites).TotalLocalUlps; got != want {
			t.Fatalf("run %d: total %v, first run %v", i, got, want)
		}
	}
}

package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/softfloat"
)

func TestRecordRoundTrip(t *testing.T) {
	f := func(time, rip, rsp, seq uint64, mx, tid uint32, op uint16, ev, raised uint8) bool {
		in := Record{
			Time: time, Rip: rip, Rsp: rsp, Seq: seq,
			MXCSR: mx, TID: tid, Opcode: op,
			Event:  softfloat.Flags(ev) & 0x3F,
			Raised: softfloat.Flags(raised) & 0x3F,
		}
		copy(in.InstrWord[:], []byte{1, 2, 3, 4, 5, 6, 7, 8})
		var buf [RecordSize]byte
		in.Encode(buf[:])
		var out Record
		out.Decode(buf[:])
		return in == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterBuffersAndFlushes(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(&sink)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := w.Append(&Record{Seq: uint64(i), TID: 7}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Decode(sink.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("decoded %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) || r.TID != 7 {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if w.Count != n {
		t.Errorf("count = %d", w.Count)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	if _, err := Decode(make([]byte, RecordSize+1)); err == nil {
		t.Error("no error for truncated image")
	}
}

func TestAppendDecodeKeepsPrefix(t *testing.T) {
	var img [2 * RecordSize]byte
	(&Record{Seq: 1}).Encode(img[:])
	(&Record{Seq: 2}).Encode(img[RecordSize:])
	dst := []Record{{Seq: 0}}
	dst, err := AppendDecode(dst, img[:])
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 3 || dst[0].Seq != 0 || dst[1].Seq != 1 || dst[2].Seq != 2 {
		t.Fatalf("AppendDecode = %+v", dst)
	}
	got, err := AppendDecode(dst, img[:RecordSize+1])
	if err == nil || len(got) != 3 {
		t.Errorf("truncated image: len %d, err %v; want dst unchanged and an error", len(got), err)
	}
}

func TestAggregateString(t *testing.T) {
	a := Aggregate{PID: 10, TID: 20, Flags: softfloat.FlagInexact | softfloat.FlagInvalid, Instructions: 5}
	s := a.String()
	if s == "" || a.Aborted {
		t.Fatal("bad aggregate")
	}
	b := Aggregate{Aborted: true}
	if b.String() == s {
		t.Error("aborted not distinguished")
	}
}

func TestRecordRender(t *testing.T) {
	r := Record{Time: 5, TID: 7, Seq: 2, Rip: 0x400010, Rsp: 0xFF00,
		Event: softfloat.FlagDivideByZero, Raised: softfloat.FlagDivideByZero | softfloat.FlagInexact}
	s := r.Render("divsd")
	for _, want := range []string{"divsd", "tid=7", "rip=0x400010", "event=ZE", "raised=ZE|PE"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("render %q missing %q", s, want)
		}
	}
}

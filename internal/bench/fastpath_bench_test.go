package bench

import (
	"encoding/json"
	"testing"
)

// TestMeasureFastpath pins the comparison harness itself: every Table 3
// configuration must trace-compile, both engines must agree (Verified),
// exactly the full-unroll streaming rows must run tiled, and the JSON
// report must archive the rows.
func TestMeasureFastpath(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	fms, err := MeasureFastpathAll(key, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(fms) != len(Configurations()) {
		t.Fatalf("got %d rows, want %d", len(fms), len(Configurations()))
	}
	for _, m := range fms {
		if !m.Verified {
			t.Errorf("%s-%d: engines diverged", m.Alg, m.Rounds)
		}
		if m.FastNsPerBlk <= 0 || m.InterpNsPerBlk <= 0 {
			t.Errorf("%s-%d: non-positive timing", m.Alg, m.Rounds)
		}
		p, err := Build(m.Config, key)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tiled != p.Streaming {
			t.Errorf("%s-%d: Tiled = %v, streaming program = %v", m.Alg, m.Rounds, m.Tiled, p.Streaming)
		}
	}
	ms, err := MeasureAll(key, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReportJSON(ms, fms, 8)
	if err != nil {
		t.Fatal(err)
	}
	var r JSONReport
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Fastpath) != len(fms) {
		t.Fatalf("JSON report archived %d fastpath rows, want %d", len(r.Fastpath), len(fms))
	}
	for i := range fms {
		if r.Fastpath[i].Tiled != fms[i].Tiled {
			t.Errorf("%s-%d: JSON archived tiled=%v, measured %v", fms[i].Alg, fms[i].Rounds, r.Fastpath[i].Tiled, fms[i].Tiled)
		}
	}
	if txt := FastpathTableText(fms); len(txt) == 0 {
		t.Fatal("empty table text")
	}
}

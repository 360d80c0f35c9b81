package bench

import (
	"bytes"
	"fmt"
	"text/tabwriter"
	"time"

	"cobra/internal/bits"
	"cobra/internal/program"
)

// FastpathMeasurement compares the two execution engines on one
// configuration: wall-clock time per block for the cycle-accurate
// interpreter and for the trace-compiled executor, over the same workload.
// Verified asserts the executors agreed — identical ciphertext and
// identical simulated counters — so a reported speedup can never come
// from a divergent (wrong) fast engine. Tiled reports whether the
// executor ran its steady period tile-major, so a per-tick fallback shows.
type FastpathMeasurement struct {
	Config
	Blocks         int     `json:"blocks"`
	InterpNsPerBlk float64 `json:"interp_ns_per_block"`
	FastNsPerBlk   float64 `json:"fastpath_ns_per_block"`
	Speedup        float64 `json:"speedup"`
	Tiled          bool    `json:"tiled"`
	Verified       bool    `json:"verified"`
}

// MeasureFastpath times one configuration's bulk ECB encryption on both
// engines. Each engine gets its own machine/executor so neither run
// perturbs the other's pipeline state, and both consume the identical
// deterministic batch.
func MeasureFastpath(c Config, key []byte, blocks int) (FastpathMeasurement, error) {
	p, err := Build(c, key)
	if err != nil {
		return FastpathMeasurement{}, err
	}
	m, err := program.NewMachine(p)
	if err != nil {
		return FastpathMeasurement{}, err
	}
	observe(m)
	if err := program.Load(m, p); err != nil {
		return FastpathMeasurement{}, err
	}
	ex, err := p.Compile()
	if err != nil {
		return FastpathMeasurement{}, fmt.Errorf("%s-%d: trace compilation: %w", c.Alg, c.Rounds, err)
	}

	in := testBatch(blocks)
	want := make([]bits.Block128, blocks)
	got := make([]bits.Block128, blocks)

	t0 := time.Now()
	wantStats, err := program.Run(m, p, want, in, program.Opts{})
	interpNs := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		return FastpathMeasurement{}, err
	}
	t0 = time.Now()
	gotStats, err := ex.EncryptInto(got, in)
	fastNs := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		return FastpathMeasurement{}, err
	}

	verified := gotStats == wantStats
	for i := range want {
		if got[i] != want[i] {
			verified = false
			break
		}
	}
	fm := FastpathMeasurement{
		Config:         c,
		Blocks:         blocks,
		InterpNsPerBlk: interpNs / float64(blocks),
		FastNsPerBlk:   fastNs / float64(blocks),
		Tiled:          ex.Tiled(),
		Verified:       verified,
	}
	if fastNs > 0 {
		fm.Speedup = interpNs / fastNs
	}
	return fm, nil
}

// MeasureFastpathAll sweeps the Table 3 configurations through both
// engines.
func MeasureFastpathAll(key []byte, blocks int) ([]FastpathMeasurement, error) {
	var out []FastpathMeasurement
	for _, c := range Configurations() {
		fm, err := MeasureFastpath(c, key, blocks)
		if err != nil {
			return nil, fmt.Errorf("%s-%d: %w", c.Alg, c.Rounds, err)
		}
		out = append(out, fm)
	}
	return out, nil
}

// FastpathTableText renders the interpreter-vs-fastpath comparison.
func FastpathTableText(fms []FastpathMeasurement) string {
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Fastpath: trace-compiled executor vs cycle-accurate interpreter (wall clock)")
	fmt.Fprintln(w, "Alg\tRnds\tBlocks\tInterp ns/blk\tFastpath ns/blk\tSpeedup\tTiled\tVerified")
	for _, m := range fms {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.0f\t%.1fx\t%v\t%v\n",
			m.Alg, m.Rounds, m.Blocks, m.InterpNsPerBlk, m.FastNsPerBlk, m.Speedup, m.Tiled, m.Verified)
	}
	w.Flush()
	return b.String()
}

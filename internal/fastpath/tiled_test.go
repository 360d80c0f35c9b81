package fastpath_test

import (
	"sort"
	"testing"

	"cobra/internal/fastpath"
)

// tiledBuiltins are the built-in configurations whose steady period runs
// tile-major: exactly the full-unroll streaming programs.
var tiledBuiltins = map[string]bool{
	"rc6-20":          true,
	"rc6-dec-20":      true,
	"rijndael-10":     true,
	"rijndael-dec-10": true,
	"serpent-32":      true,
	"rc5-12":          true,
	"rc5-dec-12":      true,
	"tea-32":          true,
	"tea-dec-32":      true,
	"simon64-44":      true,
	"simon64-dec-44":  true,
}

// TestTiledBuiltins pins which built-in configurations take the tile-major
// path: every streaming builtin must, and no other may, so a compiler
// change that silently drops a pipeline back to per-tick execution fails
// here rather than only in the benchmarks. It also pins the head's
// pipeline-fill run of every streaming builtin.
func TestTiledBuiltins(t *testing.T) {
	var tiled []string
	for _, c := range allBuilders() {
		p, err := c.build()
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		ex, err := p.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		if p.Streaming && !ex.Tiled() {
			t.Errorf("%s: streaming program runs per tick", c.name)
		}
		// A pipeline's fill — every head cycle from the first input to the
		// first output — is one run, so short calls (CBC feeds one block
		// per call) are tiled too.
		if got := fastpath.MaxHeadRun(ex); p.Streaming && got != p.PipelineDepth+1 {
			t.Errorf("%s: longest head run %d cycles, want the %d-cycle pipeline fill", c.name, got, p.PipelineDepth+1)
		}
		if ex.Tiled() {
			tiled = append(tiled, c.name)
		}
		if ex.Tiled() != tiledBuiltins[c.name] {
			t.Errorf("%s: Tiled() = %v, want %v", c.name, ex.Tiled(), tiledBuiltins[c.name])
		}
	}
	if len(tiled) != len(tiledBuiltins) {
		sort.Strings(tiled)
		t.Errorf("tiled builtins %v, want the %d in tiledBuiltins", tiled, len(tiledBuiltins))
	}
}

// Package fastpath_test is the differential harness proving the
// trace-compiled executor equivalent to the cycle-accurate interpreter:
// for every built-in program — each builder at every unroll depth and
// window — randomized batches run through both engines must produce
// identical ciphertext and identical sim.Stats counters, including across
// dirty resumes, reconfiguration, and the interpreter-fallback paths.
package fastpath_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/core"
	"cobra/internal/fastpath"
	"cobra/internal/program"
)

// builderCase is one built-in program configuration.
type builderCase struct {
	name  string
	build func() (*program.Program, error)
}

// allBuilders enumerates every builder × depth × window combination the
// repository ships: the §4 encryption mappings at every Table-3 unroll,
// the windowed Serpent variants at w = 1..16, GOST, the decryption
// mappings, and the extended 64-bit corpus (RC5, TEA, SIMON 64/128,
// Blowfish, DES) in both directions. Every one of them must
// trace-compile.
func allBuilders() []builderCase {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	key32 := make([]byte, 32)
	for i := range key32 {
		key32[i] = byte(0xa5 ^ i)
	}
	var cases []builderCase
	add := func(name string, build func() (*program.Program, error)) {
		cases = append(cases, builderCase{name, build})
	}
	for _, hw := range []int{1, 2, 4, 5, 10, 20} {
		hw := hw
		add(fmt.Sprintf("rc6-%d", hw), func() (*program.Program, error) {
			return program.BuildRC6(key, hw, 20)
		})
	}
	for _, hw := range []int{1, 2, 5, 10} {
		hw := hw
		add(fmt.Sprintf("rijndael-%d", hw), func() (*program.Program, error) {
			return program.BuildRijndael(key, hw)
		})
	}
	for _, hw := range []int{1, 2, 4, 8, 16, 32} {
		hw := hw
		add(fmt.Sprintf("serpent-%d", hw), func() (*program.Program, error) {
			return program.BuildSerpent(key, hw)
		})
	}
	for w := 1; w <= 16; w++ {
		w := w
		add(fmt.Sprintf("serpent-w%d", w), func() (*program.Program, error) {
			return program.BuildSerpentWindowed(key, w)
		})
	}
	add("gost", func() (*program.Program, error) { return program.BuildGOST(key32) })
	for _, hw := range []int{1, 2, 4, 5, 10, 20} {
		hw := hw
		add(fmt.Sprintf("rc6-dec-%d", hw), func() (*program.Program, error) {
			return program.BuildRC6Decrypt(key, hw, 20)
		})
	}
	for _, hw := range []int{1, 2, 5, 10} {
		hw := hw
		add(fmt.Sprintf("rijndael-dec-%d", hw), func() (*program.Program, error) {
			return program.BuildRijndaelDecrypt(key, hw)
		})
	}
	add("serpent-dec", func() (*program.Program, error) { return program.BuildSerpentDecrypt(key) })
	for _, hw := range []int{1, 2, 3, 4, 6, 12} {
		hw := hw
		add(fmt.Sprintf("rc5-%d", hw), func() (*program.Program, error) {
			return program.BuildRC5(key, hw, 12)
		})
		add(fmt.Sprintf("rc5-dec-%d", hw), func() (*program.Program, error) {
			return program.BuildRC5Decrypt(key, hw, 12)
		})
	}
	for _, hw := range []int{1, 2, 4, 8, 16, 32} {
		hw := hw
		add(fmt.Sprintf("tea-%d", hw), func() (*program.Program, error) {
			return program.BuildTEA(key, hw)
		})
		add(fmt.Sprintf("tea-dec-%d", hw), func() (*program.Program, error) {
			return program.BuildTEADecrypt(key, hw)
		})
	}
	for _, hw := range []int{1, 2, 4, 11, 22, 44} {
		hw := hw
		add(fmt.Sprintf("simon64-%d", hw), func() (*program.Program, error) {
			return program.BuildSIMON(key, hw)
		})
		add(fmt.Sprintf("simon64-dec-%d", hw), func() (*program.Program, error) {
			return program.BuildSIMONDecrypt(key, hw)
		})
	}
	for _, hw := range []int{1, 2} {
		hw := hw
		add(fmt.Sprintf("blowfish-%d", hw), func() (*program.Program, error) {
			return program.BuildBlowfish(key, hw)
		})
		add(fmt.Sprintf("blowfish-dec-%d", hw), func() (*program.Program, error) {
			return program.BuildBlowfishDecrypt(key, hw)
		})
	}
	add("des-1", func() (*program.Program, error) { return program.BuildDES(key[:8]) })
	add("des-dec-1", func() (*program.Program, error) { return program.BuildDESDecrypt(key[:8]) })
	return cases
}

func randomBlocks(rng *rand.Rand, n int) []bits.Block128 {
	out := make([]bits.Block128, n)
	for i := range out {
		for c := 0; c < 4; c++ {
			out[i][c] = rng.Uint32()
		}
	}
	return out
}

// TestDifferentialAllBuilders drives randomized batches through the
// compiled executor and the interpreter for every built-in configuration
// and requires identical ciphertext and identical per-call counters. The
// batch sizes deliberately mix single blocks with longer runs so iterative
// programs resume mid-epilogue and streaming programs hit the
// reload-per-call path and mid-period resume points.
func TestDifferentialAllBuilders(t *testing.T) {
	for _, c := range allBuilders() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p, err := c.build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			sizes := []int{1, 3, 1, 7, 2, 5, 1, 1, 4}
			ex := diffCalls(t, p, sizes)
			// A clone of the now dirty executor starts from the post-load
			// state and shares only the compiled trace, so it must match
			// a freshly loaded interpreter call for call.
			diffExec(t, p, ex.Clone(), sizes)
		})
	}
}

// TestDifferentialTiled drives every streaming builder across the tile
// boundaries of tile-major execution: calls of T−1, T, T+1 and 2T+1
// blocks and one of 4096 blocks, each followed by a short call on the
// dirty executor, must match the interpreter block for block and counter
// for counter.
func TestDifferentialTiled(t *testing.T) {
	const T = fastpath.TileBlocks
	for _, c := range allBuilders() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p, err := c.build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if !p.Streaming {
				t.Skip("not a streaming program")
			}
			diffCalls(t, p, []int{T - 1, 1, T, 2, T + 1, 3, 2*T + 1, 1, 4096, 5})
		})
	}
}

// diffCalls compiles p and runs diffExec on the result, which it returns.
func diffCalls(t *testing.T, p *program.Program, sizes []int) *fastpath.Exec {
	t.Helper()
	ex, err := p.Compile()
	if err != nil {
		t.Fatalf("trace compilation must succeed for every built-in program: %v", err)
	}
	diffExec(t, p, ex, sizes)
	return ex
}

// diffExec runs a call of each size through the compiled executor ex and
// the interpreter in order, the interpreter freshly loaded with p,
// requiring identical ciphertext and identical per-call counters.
func diffExec(t *testing.T, p *program.Program, ex *fastpath.Exec, sizes []int) {
	t.Helper()
	m, err := program.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := program.Load(m, p); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(0xc0b2a))
	for call, n := range sizes {
		in := randomBlocks(rng, n)
		want := make([]bits.Block128, n)
		wantStats, err := program.Run(m, p, want, in, program.Opts{})
		if err != nil {
			t.Fatalf("call %d (%d blocks): interpreter: %v", call, n, err)
		}
		got := make([]bits.Block128, n)
		gotStats, err := ex.EncryptInto(got, in)
		if err != nil {
			t.Fatalf("call %d (%d blocks): fastpath: %v", call, n, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d (%d blocks) block %d: fastpath %08x != interpreter %08x",
					call, n, i, got[i], want[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("call %d (%d blocks): fastpath stats %+v != interpreter %+v", call, n, gotStats, wantStats)
		}
	}
}

// TestDifferentialAliasing verifies the executor honors EncryptInto's
// aliasing contract (dst may be the same slice as blocks), which the bulk
// byte paths rely on for in-place conversion.
func TestDifferentialAliasing(t *testing.T) {
	key := make([]byte, 16)
	p, err := program.BuildRC6(key, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	in := randomBlocks(rng, 9)
	sep := make([]bits.Block128, len(in))
	if _, err := ex.EncryptInto(sep, in); err != nil {
		t.Fatal(err)
	}
	ex.Reset()
	alias := append([]bits.Block128(nil), in...)
	if _, err := ex.EncryptInto(alias, alias); err != nil {
		t.Fatal(err)
	}
	for i := range sep {
		if alias[i] != sep[i] {
			t.Fatalf("block %d: aliased output %08x != separate-buffer output %08x", i, alias[i], sep[i])
		}
	}
}

// TestDeviceReconfigureInterleaved drives two core devices — fastpath and
// forced-interpreter — through interleaved bulk encryptions and
// reconfigurations across all three algorithms, requiring identical bytes
// and identical accumulated counters throughout. This is the §1
// algorithm-agility scenario with the executor being torn down and
// recompiled under the caller's feet.
func TestDeviceReconfigureInterleaved(t *testing.T) {
	key1 := []byte("{fastpath-key-1}")
	key2 := []byte("[fastpath-key-2]")
	fast, err := core.Configure(core.RC6, key1, core.Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	interp, err := core.Configure(core.RC6, key1, core.Config{Unroll: 1, Interpreter: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.UsesFastpath() {
		t.Fatalf("fastpath refused: %v", fast.FastpathErr())
	}
	if interp.UsesFastpath() {
		t.Fatal("Interpreter config compiled a trace")
	}

	rng := rand.New(rand.NewSource(42))
	iv := make([]byte, 16)
	rng.Read(iv)
	check := func(step string) {
		t.Helper()
		n := 16 * (1 + rng.Intn(6))
		src := make([]byte, n)
		rng.Read(src)
		wantECB, err := interp.EncryptECB(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: interpreter ECB: %v", step, err)
		}
		gotECB, err := fast.EncryptECB(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: fastpath ECB: %v", step, err)
		}
		if !bytes.Equal(gotECB, wantECB) {
			t.Fatalf("%s: ECB ciphertext diverges", step)
		}
		wantCTR, err := interp.EncryptCTR(context.Background(), iv, src)
		if err != nil {
			t.Fatal(err)
		}
		gotCTR, err := fast.EncryptCTR(context.Background(), iv, src)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCTR, wantCTR) {
			t.Fatalf("%s: CTR ciphertext diverges", step)
		}
		if fr, ir := fast.Report(), interp.Report(); fr.Stats != ir.Stats {
			t.Fatalf("%s: accumulated stats diverge:\nfastpath    %+v\ninterpreter %+v", step, fr.Stats, ir.Stats)
		}
	}

	check("rc6-unroll1")
	for _, step := range []struct {
		alg core.Algorithm
		key []byte
		cfg core.Config
	}{
		{core.Rijndael, key2, core.Config{Unroll: 2}},
		{core.Serpent, key1, core.Config{}}, // full unroll: streaming
		{core.RC6, key2, core.Config{}},
		{core.Rijndael, key1, core.Config{Unroll: 5}},
	} {
		if err := fast.Reconfigure(step.alg, step.key, step.cfg); err != nil {
			t.Fatal(err)
		}
		if err := interp.Reconfigure(step.alg, step.key, core.Config{Unroll: step.cfg.Unroll, Interpreter: true}); err != nil {
			t.Fatal(err)
		}
		if !fast.UsesFastpath() {
			t.Fatalf("%s/%d: fastpath refused after reconfigure: %v", step.alg, step.cfg.Unroll, fast.FastpathErr())
		}
		check(fmt.Sprintf("%s-unroll%d", step.alg, step.cfg.Unroll))
	}
}

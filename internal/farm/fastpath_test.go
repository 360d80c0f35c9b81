package farm

// Fastpath regression for the farm: worker devices default to the
// trace-compiled executor (core.Config{}.Interpreter == false), so the
// pool's concurrency contract must hold with compiled traces in the
// loop, and a fastpath farm must be observationally identical to an
// interpreter farm — same bytes, same aggregate counters. Run with
// `go test -race ./internal/farm/...` (CI does): a compiled trace shared
// between two goroutines would trip the detector on the executor's
// mutable register file.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"cobra/internal/core"
)

// TestFarmFastpathDevicesUnderRace hammers a fastpath-device pool from
// many goroutines across both sharded modes, with every ciphertext
// verified against the host reference cipher. The probe device pins that
// the farm's configuration actually compiles a trace — if compilation
// ever started refusing, this test would silently regress to exercising
// the interpreter.
func TestFarmFastpathDevicesUnderRace(t *testing.T) {
	probe, err := core.Configure(core.RC6, key, core.Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !probe.UsesFastpath() {
		t.Fatalf("farm worker config does not compile a trace: %v", probe.FastpathErr())
	}
	f, err := Open(core.RC6, key, Options{Workers: 3, Config: core.Config{Unroll: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref := reference(t, core.RC6)

	const callers = 6
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			iv := bytes.Repeat([]byte{byte(0x30 + g)}, 16)
			for i := 0; i < 3; i++ {
				msg := testMessage(16*48 + g)
				gotCTR, err := f.EncryptCTR(context.Background(), iv, msg)
				if err != nil {
					errc <- err
					return
				}
				if want := refCTR(t, ref, iv, msg); !bytes.Equal(gotCTR, want) {
					errc <- errors.New("fastpath farm: CTR ciphertext corrupted under concurrency")
					return
				}
				ecbMsg := msg[:16*48]
				gotECB, err := f.EncryptECB(context.Background(), ecbMsg)
				if err != nil {
					errc <- err
					return
				}
				want := make([]byte, len(ecbMsg))
				for off := 0; off < len(ecbMsg); off += 16 {
					ref.Encrypt(want[off:], ecbMsg[off:])
				}
				if !bytes.Equal(gotECB, want) {
					errc <- errors.New("fastpath farm: ECB ciphertext corrupted under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestFarmFastpathMatchesInterpreterFarm runs the same deterministic
// workload through a fastpath farm and a forced-interpreter farm and
// requires identical ciphertext and identical aggregate counters. A single
// caller keeps the round-robin shard assignment deterministic, so each
// worker pair sees the same call sequence and the per-call stats
// equivalence proven in internal/fastpath must survive aggregation.
func TestFarmFastpathMatchesInterpreterFarm(t *testing.T) {
	fast, err := Open(core.Rijndael, key, Options{Workers: 3, Config: core.Config{Unroll: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	interp, err := Open(core.Rijndael, key, Options{Workers: 3, Config: core.Config{Unroll: 2, Interpreter: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer interp.Close()

	iv := bytes.Repeat([]byte{0x5c}, 16)
	for i, n := range []int{16, 16 * 7, 16*64 + 5, 16 * 200, 3} {
		msg := testMessage(n)
		wantCTR, err := interp.EncryptCTR(context.Background(), iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		gotCTR, err := fast.EncryptCTR(context.Background(), iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCTR, wantCTR) {
			t.Fatalf("call %d: CTR ciphertext diverges between farm engines", i)
		}
		if n%16 == 0 {
			wantECB, err := interp.EncryptECB(context.Background(), msg)
			if err != nil {
				t.Fatal(err)
			}
			gotECB, err := fast.EncryptECB(context.Background(), msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotECB, wantECB) {
				t.Fatalf("call %d: ECB ciphertext diverges between farm engines", i)
			}
		}
	}
	fr, ir := fast.Report(), interp.Report()
	if fr.Stats != ir.Stats {
		t.Fatalf("aggregate stats diverge:\nfastpath    %+v\ninterpreter %+v", fr.Stats, ir.Stats)
	}
	if fr.Stats.BlocksOut == 0 {
		t.Fatal("no blocks recorded")
	}
}

// TestFarmDecryptStatsMatchDevice gives a device and a one-worker farm
// the same encrypt and ECB/CBC decrypt calls: the worker runs exactly the
// device's call sequence, so both must report the same Summary.Stats —
// decryption counted on the device as it is on a farm tenant.
func TestFarmDecryptStatsMatchDevice(t *testing.T) {
	for _, alg := range []core.Algorithm{core.Rijndael, core.RC6} {
		d, err := core.Configure(alg, key, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := Open(alg, key, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		iv := bytes.Repeat([]byte{0x3a}, 16)
		for _, c := range []core.Cipher{d, f} {
			for _, n := range []int{1, 40, 3} {
				msg := testMessage(16 * n)
				ct, err := c.EncryptECB(ctx, msg)
				if err != nil {
					t.Fatal(err)
				}
				if pt, err := c.DecryptECB(ctx, ct); err != nil || !bytes.Equal(pt, msg) {
					t.Fatalf("%s ECB round trip: %v", alg, err)
				}
				ct, err = c.EncryptCBC(ctx, iv, msg)
				if err != nil {
					t.Fatal(err)
				}
				if pt, err := c.DecryptCBC(ctx, iv, ct); err != nil || !bytes.Equal(pt, msg) {
					t.Fatalf("%s CBC round trip: %v", alg, err)
				}
			}
		}
		if ds, fs := d.Summary().Stats, f.Summary().Stats; ds != fs {
			t.Errorf("%s: device stats %+v != farm stats %+v", alg, ds, fs)
		}
		f.Close()
	}
}

// TestPoolCompilesOncePerImage alternates two tenants, each encrypting
// and decrypting, on a one-worker pool. Every turn after the first
// switches the worker's program (a reconfiguration), but the worker only
// loads the tenant's image: summed over the pool, the compile series
// counts each (program, key, direction) once, and each switch drops both
// directions' traces as invalidations.
func TestPoolCompilesOncePerImage(t *testing.T) {
	p, err := NewPool(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, err := p.Open(core.Rijndael, key, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(core.RC6, bytes.Repeat([]byte{0x5A}, 16), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	iv := make([]byte, 16)
	msg := testMessage(16 * 4)
	const turns = 40
	for i := 0; i < turns; i++ {
		tn := []*Farm{a, b}[i%2]
		ct, err := tn.EncryptCBC(ctx, iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := tn.DecryptCBC(ctx, iv, ct); err != nil || !bytes.Equal(pt, msg) {
			t.Fatalf("turn %d: CBC round trip: %v", i, err)
		}
	}
	sum := func(name string) int64 {
		n := int64(0)
		for _, s := range p.Obs().Gather() {
			if s.Name == name {
				n += s.Value
			}
		}
		return n
	}
	if got := p.SchedStats().Reconfigures; got != turns-1 {
		t.Errorf("Reconfigures = %d, want %d (every switch)", got, turns-1)
	}
	if got := sum("cobra_device_fastpath_compiles_total"); got != 4 {
		t.Errorf("compiles summed over the pool = %d, want 4 (2 programs x 2 directions)", got)
	}
	if got := sum("cobra_device_fastpath_invalidations_total"); got != 2*(turns-1) {
		t.Errorf("invalidations summed over the pool = %d, want %d", got, 2*(turns-1))
	}
}

package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cobra/internal/obs"
	"cobra/internal/program"
	"cobra/internal/sim"
)

// TestDecryptFastpathMatchesInterpreter is the device-level differential
// test of decryption: a fastpath device and a forced-interpreter device,
// given the same ECB and CBC decrypt calls in the same order, must return
// the same bytes and the same per-call sim.Stats. The call sizes include
// runs longer than the executor's 32-block tiles, and the interleaving
// makes every call after the first resume a dirty executor.
func TestDecryptFastpathMatchesInterpreter(t *testing.T) {
	sizes := []int{1, 3, 33, 2, 65, 1, 7}
	for _, alg := range []Algorithm{RC6, Rijndael, Serpent} {
		for _, unroll := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s-unroll%d", alg, unroll), func(t *testing.T) {
				fast, err := Configure(alg, key, Config{Unroll: unroll})
				if err != nil {
					t.Fatal(err)
				}
				interp, err := Configure(alg, key, Config{Unroll: unroll, Interpreter: true})
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				rng := rand.New(rand.NewSource(int64(len(alg) + unroll)))
				iv := make([]byte, 16)
				rng.Read(iv)
				for call, n := range sizes {
					src := make([]byte, 16*n)
					rng.Read(src)
					cbc := call%2 == 1
					want, got := make([]byte, len(src)), make([]byte, len(src))
					var wantSt, gotSt sim.Stats
					if cbc {
						wantSt, err = interp.DecryptCBCInto(ctx, want, iv, src)
						if err == nil {
							gotSt, err = fast.DecryptCBCInto(ctx, got, iv, src)
						}
					} else {
						wantSt, err = interp.DecryptECBInto(ctx, want, src)
						if err == nil {
							gotSt, err = fast.DecryptECBInto(ctx, got, src)
						}
					}
					if err != nil {
						t.Fatalf("call %d (%d blocks, cbc %v): %v", call, n, cbc, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("call %d (%d blocks, cbc %v): fastpath plaintext diverges from the interpreter's", call, n, cbc)
					}
					if gotSt != wantSt {
						t.Fatalf("call %d (%d blocks, cbc %v): fastpath stats %+v != interpreter %+v", call, n, cbc, gotSt, wantSt)
					}
				}
				reg := fast.Obs()
				if got := counterValue(t, reg, "cobra_device_engine_blocks_total", obs.L("engine", "interpreter")); got != 0 {
					t.Errorf("fastpath device interpreted %d blocks", got)
				}
				if f, i := fast.Report().Stats, interp.Report().Stats; f != i {
					t.Errorf("accumulated stats diverge: fastpath %+v, interpreter %+v", f, i)
				}
			})
		}
	}
}

// TestDeviceDecryptFallbackReasons checks that decryption reports its
// engine and fallback reason like encryption: a Config.Interpreter device
// counts forced_interpreter, and a decryption half whose trace the
// validator does not prove counts compile_refused, while its encryption
// stays on the fastpath. Both still decrypt correctly.
func TestDeviceDecryptFallbackReasons(t *testing.T) {
	pt := bytes.Repeat([]byte{0x42, 0x17}, 16) // 2 blocks
	forced, err := Configure(RC6, key, Config{Interpreter: true})
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compile(RC6, key, Config{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Offer the validator the encryption trace as the decryption half's:
	// it computes a different block stream, so it must be refused.
	img.decOnce.Do(func() {
		dp, err := program.BuildRC6Decrypt(key, img.enc.prog.HWRounds, img.enc.prog.TotalRounds)
		if err != nil {
			t.Fatal(err)
		}
		img.dec = img.proven(dp, img.enc.fast, nil)
	})
	if img.dec.fast != nil || img.dec.fastErr == nil {
		t.Fatal("the validator accepted the encryption trace for decryption")
	}
	unproven, err := img.NewDevice(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		d      *Device
		reason string
	}{{forced, "forced_interpreter"}, {unproven, "compile_refused"}} {
		ctx := context.Background()
		ct, err := c.d.EncryptECB(ctx, pt)
		if err != nil {
			t.Fatal(err)
		}
		reg := c.d.Obs()
		before := counterValue(t, reg, "cobra_device_fastpath_fallbacks_total", obs.L("reason", c.reason))
		back, err := c.d.DecryptECB(ctx, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, pt) {
			t.Errorf("%s: decrypt(encrypt(x)) != x", c.reason)
		}
		if got := counterValue(t, reg, "cobra_device_fastpath_fallbacks_total", obs.L("reason", c.reason)); got != before+1 {
			t.Errorf("%s fallbacks %d -> %d, want one more for the decryption", c.reason, before, got)
		}
		if st := c.d.Report().Stats; st.BlocksOut != 4 {
			t.Errorf("%s: Report counts %d blocks out, want 4 (2 encrypted, 2 decrypted)", c.reason, st.BlocksOut)
		}
	}
	if got := counterValue(t, unproven.Obs(), "cobra_device_engine_blocks_total", obs.L("engine", "fastpath")); got != 2 {
		t.Errorf("unproven-decryption device ran %d blocks on the fastpath, want its 2 encrypted ones", got)
	}
	if got := counterValue(t, unproven.Obs(), "cobra_device_fastpath_compile_errors_total"); got != 1 {
		t.Errorf("compile errors = %d, want 1 (the refused decryption trace)", got)
	}
}

// TestImageSharedAcrossDevices loads one image into four devices on four
// goroutines, each encrypting and decrypting its own messages, and checks
// every result against the host reference. Under -race this proves the
// image, its lazily compiled decryption half, and the executor clones
// share nothing mutable.
func TestImageSharedAcrossDevices(t *testing.T) {
	for _, alg := range []Algorithm{Rijndael, RC6} {
		img, err := Compile(alg, key, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ref := img.ref
		var wg sync.WaitGroup
		errc := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				d, err := img.NewDevice(Config{})
				if err != nil {
					errc <- err
					return
				}
				ctx := context.Background()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 5; i++ {
					pt := make([]byte, 16*(1+rng.Intn(40)))
					rng.Read(pt)
					ct, err := d.EncryptECB(ctx, pt)
					if err != nil {
						errc <- err
						return
					}
					for off := 0; off < len(pt); off += 16 {
						var want [16]byte
						ref.Encrypt(want[:], pt[off:])
						if !bytes.Equal(ct[off:off+16], want[:]) {
							errc <- fmt.Errorf("%s goroutine %d: ciphertext differs from the reference", alg, g)
							return
						}
					}
					back, err := d.DecryptECB(ctx, ct)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(back, pt) {
						errc <- fmt.Errorf("%s goroutine %d: decryption differs from the plaintext", alg, g)
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
}

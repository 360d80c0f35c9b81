package program_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/program"
)

// goldenVector is one known-answer line from testdata/vectors.txt. The
// 128-bit-block ciphers carry 16-byte plaintext/ciphertext; the 64-bit
// corpus carries 8-byte fields that the test marshals into superblocks.
type goldenVector struct {
	cipher string
	key    []byte
	pt     []byte
	ct     []byte
}

func loadGoldenVectors(t *testing.T) []goldenVector {
	t.Helper()
	f, err := os.Open("testdata/vectors.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var vecs []goldenVector
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			t.Fatalf("vectors.txt:%d: want 4 fields, got %d", line, len(fields))
		}
		unhex := func(s string) []byte {
			b, err := hex.DecodeString(s)
			if err != nil {
				t.Fatalf("vectors.txt:%d: bad hex %q: %v", line, s, err)
			}
			return b
		}
		pt, ct := unhex(fields[2]), unhex(fields[3])
		if len(pt) != len(ct) || (len(pt) != 16 && len(pt) != 8) {
			t.Fatalf("vectors.txt:%d: plaintext/ciphertext must be one 8- or 16-byte block", line)
		}
		vecs = append(vecs, goldenVector{
			cipher: fields[0],
			key:    unhex(fields[1]),
			pt:     pt,
			ct:     ct,
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(vecs) == 0 {
		t.Fatal("vectors.txt: no vectors")
	}
	return vecs
}

// goldenBuilders maps each vector's cipher name to the mappings that must
// reproduce it, at a mix of iterative and streaming unroll depths.
func goldenBuilders(t *testing.T, cipher string, key []byte) map[string]*program.Program {
	t.Helper()
	out := make(map[string]*program.Program)
	add := func(label string, p *program.Program, err error) {
		if err != nil {
			t.Fatalf("%s: build: %v", label, err)
		}
		out[label] = p
	}
	switch cipher {
	case "rc6":
		for _, hw := range []int{1, 4, 20} {
			p, err := program.BuildRC6(key, hw, 20)
			add(fmt.Sprintf("rc6-%d", hw), p, err)
		}
	case "rijndael":
		for _, hw := range []int{1, 2, 10} {
			p, err := program.BuildRijndael(key, hw)
			add(fmt.Sprintf("rijndael-%d", hw), p, err)
		}
	case "serpentcobra":
		for _, hw := range []int{1, 8, 32} {
			p, err := program.BuildSerpent(key, hw)
			add(fmt.Sprintf("serpent-%d", hw), p, err)
		}
		p, err := program.BuildSerpentWindowed(key, 4)
		add("serpent-w4", p, err)
	case "rc5":
		for _, hw := range []int{1, 4, 12} {
			p, err := program.BuildRC5(key, hw, 12)
			add(fmt.Sprintf("rc5-%d", hw), p, err)
		}
	case "tea":
		for _, hw := range []int{1, 4, 32} {
			p, err := program.BuildTEA(key, hw)
			add(fmt.Sprintf("tea-%d", hw), p, err)
		}
	case "simon64":
		for _, hw := range []int{1, 11, 44} {
			p, err := program.BuildSIMON(key, hw)
			add(fmt.Sprintf("simon64-%d", hw), p, err)
		}
	case "blowfish":
		for _, hw := range []int{1, 2} {
			p, err := program.BuildBlowfish(key, hw)
			add(fmt.Sprintf("blowfish-%d", hw), p, err)
		}
	case "des":
		p, err := program.BuildDES(key)
		add("des-1", p, err)
	default:
		t.Fatalf("unknown cipher %q in vectors.txt", cipher)
	}
	return out
}

// goldenPack marshals an 8-byte block into the superblock the mapping
// expects, and goldenUnpack recovers the 8 payload bytes of the result.
// The paired LE mappings (rc5, simon64) carry two blocks per superblock,
// so the vector is driven through both lanes at once; the byte-swapped BE
// mappings (tea, blowfish) use one block plus scratch; des applies the
// host-side IP/FP transform.
func goldenPack(t *testing.T, cipher string, pt []byte) bits.Block128 {
	t.Helper()
	sb := make([]byte, 16)
	switch cipher {
	case "rc5", "simon64":
		copy(sb[0:8], pt)
		copy(sb[8:16], pt)
	case "tea", "blowfish":
		copy(sb[0:8], pt)
		program.SwapWords32(sb[0:8])
	case "des":
		packed, err := program.DESPack(pt)
		if err != nil {
			t.Fatal(err)
		}
		copy(sb, packed)
	default:
		t.Fatalf("goldenPack: unknown 64-bit cipher %q", cipher)
	}
	return bits.LoadBlock128(sb)
}

func goldenUnpack(t *testing.T, cipher string, out bits.Block128) (lanes [][]byte) {
	t.Helper()
	sb := make([]byte, 16)
	out.StoreBlock128(sb)
	switch cipher {
	case "rc5", "simon64":
		return [][]byte{sb[0:8], sb[8:16]}
	case "tea", "blowfish":
		program.SwapWords32(sb[0:8])
		return [][]byte{sb[0:8]}
	case "des":
		ct, err := program.DESUnpack(sb)
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{ct}
	default:
		t.Fatalf("goldenUnpack: unknown 64-bit cipher %q", cipher)
		return nil
	}
}

// TestGoldenVectors runs every published (or pinned) known-answer vector
// through both execution engines — the cycle-accurate interpreter and the
// trace-compiled fastpath executor — across representative unroll depths.
// A divergence in either engine, at any depth, fails against an external
// reference rather than merely against the other engine.
func TestGoldenVectors(t *testing.T) {
	for i, v := range loadGoldenVectors(t) {
		v := v
		t.Run(fmt.Sprintf("%s-%d", v.cipher, i), func(t *testing.T) {
			var in bits.Block128
			if len(v.pt) == 16 {
				in = bits.LoadBlock128(v.pt)
			} else {
				in = goldenPack(t, v.cipher, v.pt)
			}
			check := func(label, engine string, got bits.Block128) {
				t.Helper()
				if len(v.ct) == 16 {
					if want := bits.LoadBlock128(v.ct); got != want {
						t.Errorf("%s: %s ciphertext %08x, want %08x", label, engine, got, want)
					}
					return
				}
				for li, lane := range goldenUnpack(t, v.cipher, got) {
					if !bytes.Equal(lane, v.ct) {
						t.Errorf("%s: %s lane %d ciphertext %x, want %x", label, engine, li, lane, v.ct)
					}
				}
			}
			for label, p := range goldenBuilders(t, v.cipher, v.key) {
				m, err := program.NewMachine(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := program.Load(m, p); err != nil {
					t.Fatal(err)
				}
				blocks := []bits.Block128{in}
				got := make([]bits.Block128, 1)
				if _, err := program.Run(m, p, got, blocks, program.Opts{}); err != nil {
					t.Fatalf("%s: interpreter: %v", label, err)
				}
				check(label, "interpreter", got[0])
				ex, err := p.Compile()
				if err != nil {
					t.Fatalf("%s: compile: %v", label, err)
				}
				got[0] = bits.Block128{}
				if _, err := ex.EncryptInto(got, blocks); err != nil {
					t.Fatalf("%s: fastpath: %v", label, err)
				}
				check(label, "fastpath", got[0])
			}
		})
	}
}

package fastpath

import (
	"math/rand"
	"testing"

	"cobra/internal/rce"
)

// s4Nibbles is the C element's 4×4 mode as rce.Eval defines it: eight
// nibble lanes, lane l substituted through LUT bank l/2 at the page's
// sixteen entries.
func s4Nibbles(lut *rce.LUTStore, page uint8, x uint32) uint32 {
	base := 16 * uint32(page)
	var out uint32
	for lane := 0; lane < 8; lane++ {
		n := x >> (4 * uint(lane)) & 0xf
		out |= uint32(lut.S4[lane/2][base+n]&0xf) << (4 * uint(lane))
	}
	return out
}

// TestS4TableExhaustive checks the byte-indexed 4×4 tables against the
// nibble loop they replace for every page, byte position and byte value,
// over LUT contents whose high nibbles are set to prove they are ignored.
func TestS4TableExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(0x54))
	var lut rce.LUTStore
	for b := range lut.S4 {
		for i := range lut.S4[b] {
			lut.S4[b][i] = uint8(rng.Intn(256))
		}
	}
	cache := make(map[[4][16]uint8]*[4][256]uint8)
	for page := uint8(0); page < 8; page++ {
		tab := s4Table(&lut, page, cache)
		for pos := 0; pos < 4; pos++ {
			for v := 0; v < 256; v++ {
				want := uint8(s4Nibbles(&lut, page, uint32(v)<<(8*pos)) >> (8 * pos))
				if got := tab[pos][v]; got != want {
					t.Fatalf("page %d byte %d input %#02x: table %#02x, nibble loop %#02x", page, pos, v, got, want)
				}
			}
		}
		if again := s4Table(&lut, page, cache); again != tab {
			t.Errorf("page %d: identical page content built a second table", page)
		}
	}
}

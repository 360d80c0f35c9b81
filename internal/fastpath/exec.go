package fastpath

import (
	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/sim"
)

// tileBlocks is the tile size of tile-major execution: the number of blocks
// one element step sweeps before the next step is dispatched.
const tileBlocks = 32

// lanes holds up to tileBlocks blocks column-major — lanes[c][b] is word c
// of block b — so an element step sweeps one contiguous column.
type lanes [datapath.Cols][tileBlocks]uint32

// set stores v as block b.
//
//cobra:hotpath
func (l *lanes) set(b int, v bits.Block128) {
	l[0][b], l[1][b], l[2][b], l[3][b] = v[0], v[1], v[2], v[3]
}

// get returns block b.
//
//cobra:hotpath
func (l *lanes) get(b int) bits.Block128 {
	return bits.Block128{l[0][b], l[1][b], l[2][b], l[3][b]}
}

// tileBuf is the kernel's working set. A row reads its input vector and
// the previous row's input (INSEL's bypass bus) and writes its output, so
// the three roles rotate through three lane sets.
type tileBuf [3]lanes

// spare returns the index of a lane set holding neither the current nor
// the previous row input.
//
//cobra:hotpath
func spare(cur, prev int) int {
	if cur == prev {
		return (cur + 1) % 3
	}
	return 3 - cur - prev
}

// runSeg replays a compiled cycle segment from index start. Each cycle's
// attributed counters are accumulated into acc, so the total matches the
// interpreter's delta for the same stretch. The segment stops immediately
// after the cycle that emits the want-th output — exactly where the
// interpreter's run would stop — and returns the index one past the last
// executed cycle (len(ticks) when it ran to the end). Stall cycles only
// move counters, a whole stretch of them at once. Enabled cycles run
// through runTick in runs: a cycle's run
// (cTick.run, at most e.tileMax) is the stretch of consecutive cycles
// Compile proved to share one datapath configuration and to read only the
// external port, so one kernel call moves all their blocks down the array
// (see "Tile-major execution" in the package doc); any other cycle is a
// run of one.
//
//cobra:hotpath
func (e *Exec) runSeg(ticks []cTick, start int, in []bits.Block128, inPos *int, dst []bits.Block128, want int, outPos *int, acc *sim.Stats) int {
	buf := &e.buf
	for t := start; t < len(ticks); {
		ct := &ticks[t]
		if !ct.enabled {
			acc.Add(ct.runStats)
			t += ct.run
			continue
		}
		k := min(ct.run, e.tileMax)
		emits := *outPos
		for j := 0; j < k; j++ {
			tj := &ticks[t+j]
			acc.Add(tj.stats)
			if tj.emit {
				if emits++; emits == want {
					k = j + 1
					break
				}
			}
		}
		switch ct.inMode {
		case isa.InExternal:
			for b, v := range in[*inPos : *inPos+k] {
				buf[0].set(b, v)
			}
			*inPos += k
		case isa.InFeedback:
			buf[0].set(0, e.fb)
		default:
			buf[0].set(0, ct.eramVec)
		}
		out := &buf[e.runTick(ct, k)]
		for j := 0; j < k; j++ {
			if ticks[t+j].emit {
				dst[*outPos] = out.get(j)
				*outPos++
			}
		}
		e.fb = out.get(k - 1)
		t += k
		if *outPos == want {
			return t
		}
	}
	return len(ticks)
}

// runTick evaluates one compiled enabled cycle over k blocks (1 ≤ k ≤
// tileBlocks) loaded column-major into e.buf[0], and returns the index of
// the lane set holding the outputs. It is the executor's only datapath
// kernel: the loop nest runs row by row, cell by cell, and step by step
// over all k blocks, so each configuration decision is dispatched once per
// tile.
//
//cobra:hotpath
func (e *Exec) runTick(ct *cTick, k int) int {
	buf := &e.buf
	cur, prev := 0, 0
	if ct.anyWhite {
		whiten(&ct.whiteIn, &buf[cur], k)
	}
	for r := range ct.rows {
		row := &ct.rows[r]
		if row.shuffle != nil {
			s := spare(cur, prev)
			shuffleLanes(&buf[s], &buf[cur], row.shuffle, k)
			cur = s
		}
		o := spare(cur, prev)
		evalRow(row, &buf[o], &buf[cur], &buf[prev], &e.reg[r], k)
		prev, cur = cur, o
	}
	if ct.anyWhite {
		whiten(&ct.whiteOut, &buf[cur], k)
	}
	return cur
}

// evalRow evaluates one row's cells over k blocks: out receives the row
// output, vec is the row input the cells and their operands select from,
// pv the previous row's input (INSEL's bypass bus), and regRow the row's
// pipeline registers.
//
//cobra:hotpath
func evalRow(row *cRow, out, vec, pv *lanes, regRow *[datapath.Cols]uint32, k int) {
	for c := range row.cells {
		cell := &row.cells[c]
		x := out[c][:k]
		if cell.regOnly {
			for b := range x {
				x[b] = regRow[c]
			}
			continue
		}
		src := vec
		if cell.insel >= 4 {
			src = pv
		}
		y := src[cell.insel&3][:len(x)]
		if len(cell.steps) > 0 {
			evalSteps(cell.steps, x, y, vec)
		} else {
			for b := range x {
				x[b] = y[b]
			}
		}
		if cell.reg {
			// Register carry: block b presents what block b−1 latched, the
			// first block the register's current value; the last block's
			// value stays latched.
			last := x[k-1]
			for b := k - 1; b > 0; b-- {
				x[b] = x[b-1]
			}
			x[0] = regRow[c]
			regRow[c] = last
		}
	}
}

// whiten applies one whitening stage to the first k blocks of v.
//
//cobra:hotpath
func whiten(w *[datapath.Cols]cWhite, v *lanes, k int) {
	for c := 0; c < datapath.Cols; c++ {
		x := v[c][:k]
		key := w[c].key
		switch w[c].mode {
		case isa.WhiteXor:
			for b := range x {
				x[b] ^= key
			}
		case isa.WhiteAdd:
			for b := range x {
				x[b] += key
			}
		}
	}
}

// evalSteps runs one RCE's compiled element chain over a lane vector: x
// holds the chain value of each block and vec the row input the operands
// select from. Each step is dispatched once and swept over every block.
//
//cobra:hotpath
func evalSteps(steps []step, x, y []uint32, vec *lanes) {
	n := len(x)
	y = y[:n]
	for i := range steps {
		st := &steps[i]
		switch st.kind {
		case stXorImm:
			for b := range x {
				x[b] = y[b] ^ st.imm
			}
		case stXorBlk:
			z := vec[st.src][:n]
			for b := range x {
				x[b] = y[b] ^ preShift(z[b], st.aux, st.flag)
			}
		case stAddImm:
			for b := range x {
				x[b] = bits.AddMod(y[b], st.imm, bits.Width(st.aux))
			}
		case stAddBlk:
			z := vec[st.src][:n]
			for b := range x {
				x[b] = bits.AddMod(y[b], z[b], bits.Width(st.aux))
			}
		case stRotlImm:
			for b := range x {
				x[b] = bits.RotL(y[b], uint(st.aux))
			}
		case stRotlVar:
			z := vec[st.src][:n]
			for b := range x {
				x[b] = bits.RotL(y[b], varAmt(z[b], st.flag))
			}
		case stShlImm:
			for b := range x {
				x[b] = bits.Shl(y[b], uint(st.aux))
			}
		case stShrImm:
			for b := range x {
				x[b] = bits.Shr(y[b], uint(st.aux))
			}
		case stShlVar:
			z := vec[st.src][:n]
			for b := range x {
				x[b] = bits.Shl(y[b], varAmt(z[b], st.flag))
			}
		case stShrVar:
			z := vec[st.src][:n]
			for b := range x {
				x[b] = bits.Shr(y[b], varAmt(z[b], st.flag))
			}
		case stAndImm:
			for b := range x {
				x[b] = y[b] & st.imm
			}
		case stAndBlk:
			z := vec[st.src][:n]
			for b := range x {
				x[b] = y[b] & preShift(z[b], st.aux, st.flag)
			}
		case stOrImm:
			for b := range x {
				x[b] = y[b] | st.imm
			}
		case stOrBlk:
			z := vec[st.src][:n]
			for b := range x {
				x[b] = y[b] | preShift(z[b], st.aux, st.flag)
			}
		case stSubImm:
			for b := range x {
				x[b] = bits.SubMod(y[b], st.imm, bits.Width(st.aux))
			}
		case stSubBlk:
			z := vec[st.src][:n]
			for b := range x {
				x[b] = bits.SubMod(y[b], z[b], bits.Width(st.aux))
			}
		case stS8, stS4:
			t := st.tab
			for b, v := range y {
				x[b] = uint32(t[0][uint8(v)]) |
					uint32(t[1][uint8(v>>8)])<<8 |
					uint32(t[2][uint8(v>>16)])<<16 |
					uint32(t[3][v>>24])<<24
			}
		case stS8to32:
			t := st.tab
			sh := 8 * uint(st.aux)
			for b, v := range y {
				s := uint8(v >> sh)
				x[b] = uint32(t[0][s]) | uint32(t[1][s])<<8 | uint32(t[2][s])<<16 | uint32(t[3][s])<<24
			}
		case stMulImm:
			for b := range x {
				x[b] = bits.MulMod(y[b], st.imm, bits.Width(st.aux))
			}
		case stMulBlk:
			z := vec[st.src][:n]
			for b := range x {
				x[b] = bits.MulMod(y[b], z[b], bits.Width(st.aux))
			}
		case stSquare:
			for b := range x {
				x[b] = bits.SquareMod32(y[b])
			}
		case stGFTab:
			t := st.gf
			for b, v := range y {
				x[b] = t[0][v&0xff] ^ t[1][v>>8&0xff] ^ t[2][v>>16&0xff] ^ t[3][v>>24]
			}
		}
		y = x
	}
}

// varAmt extracts a data-dependent shift amount: the low five bits of the
// selected block, negated mod 32 when the E element's Neg stage is active.
//
//cobra:hotpath
func varAmt(v uint32, neg bool) uint {
	amt := uint(v & 31)
	if neg {
		amt = (32 - amt) & 31
	}
	return amt
}

// preShift applies an A element's fixed operand pre-shift.
//
//cobra:hotpath
func preShift(v uint32, amt uint8, rot bool) uint32 {
	if amt == 0 {
		return v
	}
	if rot {
		return bits.RotL(v, uint(amt))
	}
	return bits.Shl(v, uint(amt))
}

// shuffleLanes permutes the 16 bytes of the first k blocks of src into dst
// through a compiled shuffler permutation (perm[d] = source byte index).
//
//cobra:hotpath
func shuffleLanes(dst, src *lanes, perm *[16]uint8, k int) {
	for w := 0; w < datapath.Cols; w++ {
		p := perm[4*w : 4*w+4]
		y0, y1, y2, y3 := src[p[0]>>2][:k], src[p[1]>>2][:k], src[p[2]>>2][:k], src[p[3]>>2][:k]
		s0, s1, s2, s3 := 8*uint(p[0]&3), 8*uint(p[1]&3), 8*uint(p[2]&3), 8*uint(p[3]&3)
		x := dst[w][:k]
		for b := range x {
			x[b] = y0[b]>>s0&0xff | (y1[b]>>s1&0xff)<<8 | (y2[b]>>s2&0xff)<<16 | (y3[b]>>s3&0xff)<<24
		}
	}
}

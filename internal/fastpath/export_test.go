package fastpath

// TileBlocks exports the tile size to the external tests, which size their
// calls to straddle tile boundaries.
const TileBlocks = tileBlocks

// MaxHeadRun returns the longest run in the executor's head segment: the
// most cycles of the load-to-first-output stretch one kernel call covers.
func MaxHeadRun(e *Exec) int {
	n := 0
	for i := range e.head {
		n = max(n, e.head[i].run)
	}
	return n
}

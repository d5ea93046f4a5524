package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"zipserv/internal/bf16"
	"zipserv/internal/tile"
)

// Compress encodes a BF16 weight matrix into TCA-TBE form using the
// paper's default configuration (3-bit codewords, contiguous window).
// It implements Algorithm 1: a global exponent-analysis phase followed
// by per-tile encoding. The encoding is lossless: Decompress returns
// the original matrix bit-for-bit.
func Compress(m *bf16.Matrix) (*Compressed, error) {
	return CompressWithOptions(m, DefaultOptions())
}

// CompressWithOptions encodes m with explicit codec options.
func CompressWithOptions(m *bf16.Matrix, opts Options) (*Compressed, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if m.Rows <= 0 || m.Cols <= 0 {
		return nil, fmt.Errorf("core: cannot compress empty %d×%d matrix", m.Rows, m.Cols)
	}

	// Phase I: global exponent analysis.
	hist := exponentHistogram(m)
	c := &Compressed{Grid: tile.NewGrid(m.Rows, m.Cols), Opts: opts}
	switch opts.Selection {
	case WindowSelection:
		start, _ := BestWindow(hist, opts.WindowSize())
		c.BaseExp = int16(start) - 1
		c.Codebook = make([]uint8, opts.WindowSize())
		for i := range c.Codebook {
			c.Codebook[i] = uint8(start + i)
		}
	case TopFrequencySelection:
		c.Codebook = topExponents(hist, opts.WindowSize())
		c.BaseExp = int16(c.Codebook[0]) - 1 // informational only
	}

	// Phase II: tile encoding, in two passes over each block so every
	// buffer is allocated exactly once at its final size. Pass 1
	// computes the bit-planes and counts each block's in-window
	// elements; a prefix sum turns the counts into the GroupTile
	// offsets; pass 2 writes each block's values straight into its
	// region of High and Full. Blocks are visited row-major, frags in
	// storage order, positions row-major within each frag — the order
	// the decoder uses, so offsets line up with no per-element index
	// metadata. Blocks are independent and write disjoint regions, so
	// both passes run in parallel across GOMAXPROCS workers with output
	// identical to a sequential encoder's (the checkpoint tests rely on
	// that determinism).
	g := c.Grid
	nb := g.NumBlocks()
	c.Planes = make([]uint64, g.NumFrags()*opts.CodewordBits)
	c.HighOff = make([]int64, nb+1)
	c.FullOff = make([]int64, nb+1)
	enc := blockEncoder{c: c, m: m, codes: c.codeTable()}
	enc.each(blockEncoder.planes)
	for b := 0; b < nb; b++ {
		hi := c.HighOff[b+1] // pass 1 left the block's in-window count here
		c.HighOff[b+1] = c.HighOff[b] + hi
		c.FullOff[b+1] = c.FullOff[b] + tile.BlockDim*tile.BlockDim - hi
	}
	c.High = make([]uint8, c.HighOff[nb])
	c.Full = make([]uint16, c.FullOff[nb])
	enc.each(blockEncoder.values)
	return c, nil
}

// padCode is the codeword padding elements encode as: one zero
// sign/mantissa byte each in High, never read back.
const padCode = 1

// codeTable maps every 8-bit exponent to its 1-based codeword, or 0
// for an outlier, so the encoder classifies an element with one load.
func (c *Compressed) codeTable() [256]uint8 {
	var codes [256]uint8
	for e := range codes {
		codes[e] = uint8(c.codeForExponent(uint8(e)))
	}
	return codes
}

// fragOrigins is the host-side tile geometry, computed once: the
// (row, col) of each FragTile's top-left element within its BlockTile,
// indexed by storage order. The codec walks a frag as FragDim
// contiguous row slices from its origin instead of mapping every
// element through tile.Grid.FromCoord.
var fragOrigins = func() (o [tile.FragsPerBlock]struct{ row, col int }) {
	g := tile.NewGrid(tile.BlockDim, tile.BlockDim)
	for f := range o {
		o[f].row, o[f].col = g.FromCoord(tile.Coord{Frag: f})
	}
	return o
}()

// blockOrigin returns the matrix (row, col) of BlockTile b's top-left
// element.
func blockOrigin(g tile.Grid, b int) (row, col int) {
	return b / g.BlockCols * tile.BlockDim, b % g.BlockCols * tile.BlockDim
}

// fragRow returns the in-bounds part of row i of frag f in the block
// at (row0, col0): a slice of m.Data of length 0..FragDim, aliasing the
// matrix, so the encoder reads and the decoder writes it directly.
// Positions past its length are padding.
func fragRow(m *bf16.Matrix, row0, col0, f, i int) []bf16.BF16 {
	r, c := row0+fragOrigins[f].row+i, col0+fragOrigins[f].col
	if r >= m.Rows || c >= m.Cols {
		return nil
	}
	end := c + tile.FragDim
	if end > m.Cols {
		end = m.Cols
	}
	return m.Data[r*m.Cols+c : r*m.Cols+end]
}

// blockEncoder carries one Compress call's state into its two
// per-block passes.
type blockEncoder struct {
	c     *Compressed
	m     *bf16.Matrix
	codes [256]uint8
}

// each runs pass over every block. A single block (a KV block) runs in
// place, so the encoder is never captured by a closure and Compress
// allocates nothing beyond its output; larger matrices split their
// blocks across workers.
func (e blockEncoder) each(pass func(e blockEncoder, lo, hi int)) {
	nb := e.c.Grid.NumBlocks()
	if nb == 1 {
		pass(e, 0, 1)
		return
	}
	shared := e
	parallelBlocks(nb, func(lo, hi int) { pass(shared, lo, hi) })
}

// planes is pass 1 over blocks [lo, hi): it writes each frag's
// bit-planes and leaves block b's in-window element count (padding
// included) in HighOff[b+1]. A row's eight codewords are gathered one
// per byte of a uint64 and then split into the row's byte of each
// plane with gatherBits; the n plane words of a frag stay in locals
// until the frag is done. Codewords have at most four bits, so planes
// above n stay zero and are not stored.
func (e blockEncoder) planes(lo, hi int) {
	c, n := e.c, e.c.Opts.CodewordBits
	for b := lo; b < hi; b++ {
		row0, col0 := blockOrigin(c.Grid, b)
		count := 0
		for f := 0; f < tile.FragsPerBlock; f++ {
			var p0, p1, p2, p3 uint64
			for i := 0; i < tile.FragDim; i++ {
				row := fragRow(e.m, row0, col0, f, i)
				codes := padCodes &^ (uint64(1)<<(8*len(row)) - 1) // 0 for a full row
				for j, w := range row {
					codes |= uint64(e.codes[w.Exponent()]) << (8 * j)
				}
				s := uint(i * tile.FragDim)
				p0 |= gatherBits(codes) << s
				p1 |= gatherBits(codes>>1) << s
				p2 |= gatherBits(codes>>2) << s
				p3 |= gatherBits(codes>>3) << s
			}
			pl := [...]uint64{p0, p1, p2, p3}
			frag := b*tile.FragsPerBlock + f
			copy(c.Planes[frag*n:frag*n+n], pl[:n])
			count += popcount(p0 | p1 | p2 | p3)
		}
		c.HighOff[b+1] = int64(count)
	}
}

// padCodes is a row of eight padCode codewords, one per byte.
const padCodes = padCode * 0x0101010101010101

// gatherBits returns bit 0 of each byte of x packed into one byte, byte
// j's bit landing in bit j: the inverse of spreadBits. The multiply
// shifts bit 8j up to bit 56+j with no two partial products sharing a
// bit position, so no carries disturb the result.
func gatherBits(x uint64) uint64 {
	return (x & 0x0101010101010101) * 0x0102040810204080 >> 56
}

// values is pass 2 over blocks [lo, hi): it routes each element to
// High or Full by its frag's indicator bit, with running counters in
// place of any per-element rank computation. Padding takes a High
// slot that the zeroed allocation already holds.
func (e blockEncoder) values(lo, hi int) {
	c := e.c
	for b := lo; b < hi; b++ {
		row0, col0 := blockOrigin(c.Grid, b)
		high := c.High[c.HighOff[b]:c.HighOff[b+1]]
		full := c.Full[c.FullOff[b]:c.FullOff[b+1]]
		h, l := 0, 0
		for f := 0; f < tile.FragsPerBlock; f++ {
			ind := c.Indicator(b*tile.FragsPerBlock + f)
			for i := 0; i < tile.FragDim; i++ {
				row := fragRow(e.m, row0, col0, f, i)
				bitsLeft := ind >> uint(i*tile.FragDim)
				if uint8(bitsLeft) == 0xFF && len(row) == tile.FragDim { // the common all-in-window row
					dst := high[h : h+tile.FragDim]
					for j, w := range row {
						dst[j] = w.PackSignMantissa()
					}
					h += tile.FragDim
					continue
				}
				for _, w := range row {
					if bitsLeft&1 != 0 {
						high[h] = w.PackSignMantissa()
						h++
					} else {
						full[l] = w.Bits()
						l++
					}
					bitsLeft >>= 1
				}
				h += tile.FragDim - len(row)
			}
		}
	}
}

// parallelBlocks splits [0, n) into contiguous chunks across
// GOMAXPROCS workers.
func parallelBlocks(n int, work func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		work(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			work(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// exponentHistogram counts the raw 8-bit exponent field of every
// in-bounds element.
func exponentHistogram(m *bf16.Matrix) [256]int64 {
	var hist [256]int64
	for _, w := range m.Data {
		hist[w.Exponent()]++
	}
	return hist
}

// BestWindow returns the start of the width-k window over exponent
// values [0,255] with maximal total count, and that count. Ties are
// broken toward the lower start, making compression deterministic.
// This is SelectTop7ConsecutiveExponents of Algorithm 1 (generalised
// to any k).
func BestWindow(hist [256]int64, k int) (start int, covered int64) {
	if k <= 0 || k > 256 {
		panic(fmt.Sprintf("core: window width %d out of range", k))
	}
	var sum int64
	for i := 0; i < k; i++ {
		sum += hist[i]
	}
	best, bestStart := sum, 0
	for s := 1; s+k <= 256; s++ {
		sum += hist[s+k-1] - hist[s-1]
		if sum > best {
			best, bestStart = sum, s
		}
	}
	return bestStart, best
}

// topExponents returns the k individually most frequent exponent
// values, sorted ascending (deterministic tie-break by value).
func topExponents(hist [256]int64, k int) []uint8 {
	type ec struct {
		e uint8
		n int64
	}
	all := make([]ec, 256)
	for i := range all {
		all[i] = ec{uint8(i), hist[i]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].e < all[j].e
	})
	top := make([]uint8, k)
	for i := 0; i < k; i++ {
		top[i] = all[i].e
	}
	sort.Slice(top, func(i, j int) bool { return top[i] < top[j] })
	return top
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

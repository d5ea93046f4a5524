package core

import (
	"zipserv/internal/bf16"
	"zipserv/internal/tile"
)

// Counters tallies the architectural events the decoder generates,
// mirroring what NVIDIA Nsight Compute reports in the paper's
// micro-level analysis (Figure 12): integer/logical ALU instructions
// (LOP3, IADD, SHF), population counts (POPC), shared-memory loads
// (LDS), and compressed bytes consumed from DRAM. Counts are
// deterministic functions of the bitmap contents, exactly as on real
// hardware where every lane executes the same branch-free sequence.
type Counters struct {
	LOP3 int64 // 3-input logic ops (bitmap OR, field merge)
	IADD int64 // integer adds (mask construction, implicit lookup)
	SHF  int64 // funnel shifts / bit extracts
	POPC int64 // population counts (dynamic addressing)
	LDS  int64 // shared-memory loads (value-buffer fetches)

	BytesRead int64 // compressed bytes consumed
	Elements  int64 // elements decoded
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.LOP3 += other.LOP3
	c.IADD += other.IADD
	c.SHF += other.SHF
	c.POPC += other.POPC
	c.LDS += other.LDS
	c.BytesRead += other.BytesRead
	c.Elements += other.Elements
}

// ALUOps returns the total integer-pipeline instruction count.
func (c *Counters) ALUOps() int64 { return c.LOP3 + c.IADD + c.SHF + c.POPC }

// FragView is a decoded 8×8 FragTile in row-major order, the register
// image a warp holds after decompression (lane i owns elements 2i and
// 2i+1).
type FragView [tile.FragElems]bf16.BF16

// Decompress reconstructs the original matrix bit-for-bit. It walks
// blocks and frags in storage order, decoding each FragTile with the
// thread-local procedure of Algorithm 2 and writing its in-bounds
// rows into the matrix as contiguous slices, discarding padding.
func Decompress(c *Compressed) (*bf16.Matrix, error) {
	return decompress(c, nil)
}

// DecompressCounted is Decompress plus architectural event counting;
// it is the instrumented path behind Figure 12 and the standalone
// decompression benchmarks (Figure 13).
func DecompressCounted(c *Compressed) (*bf16.Matrix, Counters, error) {
	var ctr Counters
	m, err := decompress(c, &ctr)
	if err != nil {
		return nil, Counters{}, err
	}
	ctr.BytesRead = int64(c.SizeBytes())
	return m, ctr, nil
}

// decompress is the one decode walk behind Decompress and
// DecompressCounted, adding each frag's fragDecodeCost into ctr when
// it is non-nil. Validate has checked every block's buffer spans
// against its bitmaps, so the running offsets stay in bounds.
func decompress(c *Compressed, ctr *Counters) (*bf16.Matrix, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := c.Grid
	m := bf16.NewMatrix(g.Rows, g.Cols)
	exps := c.exponentFields()
	var fv FragView
	for b := 0; b < g.NumBlocks(); b++ {
		row0, col0 := blockOrigin(g, b)
		startH, startL := c.HighOff[b], c.FullOff[b]
		for f := 0; f < tile.FragsPerBlock; f++ {
			hi := c.decodeFrag(b*tile.FragsPerBlock+f, startH, startL, &exps, &fv)
			if ctr != nil {
				ctr.Add(c.fragDecodeCost(hi))
			}
			for i := 0; i < tile.FragDim; i++ {
				copy(fragRow(m, row0, col0, f, i), fv[i*tile.FragDim:])
			}
			startH += int64(hi)
			startL += int64(tile.FragElems - hi)
		}
	}
	return m, nil
}

// FragStarts returns the High and Full buffer offsets at which global
// FragTile frag begins. Offsets are stored only per BlockTile (the
// paper's GroupTile offset array); within a block they are derived by
// summing indicator popcounts of the preceding frags — the same
// prefix-sum the GPU performs warp-locally.
func (c *Compressed) FragStarts(frag int) (startH, startL int64) {
	b := frag / tile.FragsPerBlock
	startH, startL = c.HighOff[b], c.FullOff[b]
	for f := b * tile.FragsPerBlock; f < frag; f++ {
		hi := popcount(c.Indicator(f))
		startH += int64(hi)
		startL += int64(tile.FragElems - hi)
	}
	return startH, startL
}

// DecodeFrag decodes global FragTile frag into a FragView using
// Algorithm 2. It is the random-access entry point used by the fused
// ZipGEMM kernel; sequential consumers should track offsets
// incrementally instead of calling FragStarts per tile.
func (c *Compressed) DecodeFrag(frag int, out *FragView) {
	startH, startL := c.FragStarts(frag)
	c.DecodeFragAt(frag, startH, startL, out, nil)
}

// DecodeFragAt decodes FragTile frag given its known buffer offsets,
// optionally counting architectural events into ctr (nil to skip).
func (c *Compressed) DecodeFragAt(frag int, startH, startL int64, out *FragView, ctr *Counters) {
	exps := c.exponentFields()
	hi := c.decodeFrag(frag, startH, startL, &exps, out)
	if ctr != nil {
		ctr.Add(c.fragDecodeCost(hi))
	}
}

// exponentFields maps each codeword 1..2^n−1 to its exponent, already
// placed in a BF16's exponent field (entry 0 is unused): the implicit
// base+code under WindowSelection, the codebook under
// TopFrequencySelection. OR-ed with packedFields[byte] it reassembles
// an in-window element with two loads.
func (c *Compressed) exponentFields() (exps [1 << maxCodewordBits]bf16.BF16) {
	for code := 1; code <= c.Opts.WindowSize(); code++ {
		exps[code] = bf16.Assemble(0, c.exponentForCode(code), 0)
	}
	return exps
}

// packedFields maps a PackedSignMantissa byte to the BF16 carrying its
// sign and mantissa with a zero exponent.
var packedFields = func() (t [256]bf16.BF16) {
	for b := range t {
		sign, mant := bf16.UnpackSignMantissa(uint8(b))
		t[b] = bf16.Assemble(sign, 0, mant)
	}
	return t
}()

// spreadBits maps a byte to a uint64 holding its bit j in bit 0 of
// byte j. OR-ing the spread of FragTile row i's byte from each plane,
// shifted by the plane number, yields the row's eight codewords one
// per byte — four lookups per row in place of per-element bit
// gathers.
var spreadBits = func() (t [256]uint64) {
	for b := range t {
		for j := 0; j < 8; j++ {
			t[b] |= uint64(b>>j&1) << (8 * j)
		}
	}
	return t
}()

// decodeFrag implements the three-stage thread-local decompressor of
// §4.3.2 for one 8×8 FragTile and returns its in-window element count:
//
//  1. Spatial bitmap indicator: M = B1 | B2 | B3 classifies every
//     position as compressed (1) or fallback (0).
//  2. Dynamic addressing: an in-window element indexes High by the
//     count of 1s of M below its position, an outlier indexes Full by
//     the count of 0s. The GPU computes each count as a prefix
//     popcount in its lane; walking positions in order, the host keeps
//     the two counts as running counters instead.
//  3. Fast exponent reassembly: exponent = BaseExp + code (implicit
//     lookup), fused with the packed sign/mantissa byte into a BF16 —
//     here one OR of two precomputed fields.
//
// The n plane words stay in locals (planes above n are zero) and each
// row's codewords are gathered at once through spreadBits. Counters
// model the warp's instruction stream separately (fragDecodeCost), so
// this loop is free to be the host's fastest equivalent.
func (c *Compressed) decodeFrag(frag int, startH, startL int64, exps *[1 << maxCodewordBits]bf16.BF16, out *FragView) int {
	n := c.Opts.CodewordBits
	var pl [maxCodewordBits]uint64
	copy(pl[:], c.Planes[frag*n:frag*n+n])
	p0, p1, p2, p3 := pl[0], pl[1], pl[2], pl[3]
	hi := popcount(p0 | p1 | p2 | p3)
	high := c.High[startH : startH+int64(hi)]
	full := c.Full[startL : startL+int64(tile.FragElems-hi)]
	h, l := 0, 0
	for i := 0; i < tile.FragDim; i++ {
		s := uint(i * tile.FragDim)
		codes := spreadBits[uint8(p0>>s)] | spreadBits[uint8(p1>>s)]<<1 |
			spreadBits[uint8(p2>>s)]<<2 | spreadBits[uint8(p3>>s)]<<3
		row := out[i*tile.FragDim : i*tile.FragDim+tile.FragDim]
		if uint8((p0|p1|p2|p3)>>s) == 0xFF { // the common all-in-window row
			src := high[h : h+tile.FragDim]
			for j := range row {
				row[j] = packedFields[src[j]] | exps[codes&(1<<maxCodewordBits-1)]
				codes >>= 8
			}
			h += tile.FragDim
			continue
		}
		for j := range row {
			code := codes & (1<<maxCodewordBits - 1)
			codes >>= 8
			if code != 0 {
				row[j] = packedFields[high[h]] | exps[code]
				h++
			} else {
				row[j] = bf16.FromBits(full[l])
				l++
			}
		}
	}
	return hi
}

// DecodeALUOpsPerElement returns the expected integer-pipeline
// instructions (LOP3+IADD+SHF+POPC) per decoded element for an n-bit
// codeword scheme with the given in-window coverage. It is the
// continuous form of fragDecodeCost, used by the GPU cost model to
// price the fused kernel's ALU stream; the two are cross-checked by
// tests.
func DecodeALUOpsPerElement(n int, coverage float64) float64 {
	indicator := float64(n-1) / float64(tile.ElemsPerLane) // per-lane OR, amortised over 2 elems
	base := 5.0                                            // mask SHF+IADD, POPC, mode SHF+LOP3
	high := coverage * float64((n+2)+(n+1)+1)              // code gather+reassembly SHF/LOP3 + implicit IADD
	low := (1 - coverage) * 1.0                            // fallback index IADD
	return indicator + base + high + low
}

// fragDecodeCost prices one of c's FragTiles with hi in-window
// elements.
func (c *Compressed) fragDecodeCost(hi int) Counters {
	return fragDecodeCost(c.Opts.CodewordBits, hi, c.Opts.Selection == WindowSelection)
}

// fragDecodeCost returns the deterministic instruction cost of
// decoding one FragTile with hi in-window elements out of 64, using
// n bit-planes. The per-element sequences follow the CUDA decoder
// sketch in §4.3.2:
//
//	indicator:  n−1 LOP3 per lane (OR of n planes, once per lane);
//	per element: 1 SHF + 1 IADD (mask), 1 POPC (prefix count),
//	             1 SHF + 1 LOP3 (mode test);
//	high path:  n SHF + n−1 LOP3 (code gather), 1 IADD (implicit
//	            lookup; an LDS instead when a codebook table is used),
//	            2 SHF + 2 LOP3 (BF16 reassembly), 1 LDS (High fetch);
//	fallback:   1 IADD (zero count), 1 LDS (Full fetch).
func fragDecodeCost(n, hi int, implicit bool) Counters {
	lo := tile.FragElems - hi
	var ct Counters
	lanes := int64(tile.WarpLanes)
	ct.LOP3 += lanes * int64(n-1) // indicator OR

	perElem := int64(tile.FragElems)
	ct.SHF += perElem * 2  // mask shift + mode-test shift
	ct.IADD += perElem * 1 // mask −1
	ct.POPC += perElem * 1
	ct.LOP3 += perElem * 1 // mode-test AND

	h := int64(hi)
	ct.SHF += h * int64(n+2)    // code gather + reassembly shifts
	ct.LOP3 += h * int64(n-1+2) // code OR-merge + reassembly merges
	if implicit {
		ct.IADD += h // base + code
	} else {
		ct.LDS += h // codebook table lookup
	}
	ct.LDS += h // High fetch

	l := int64(lo)
	ct.IADD += l // p − idxH
	ct.LDS += l  // Full fetch

	ct.Elements += int64(tile.FragElems)
	return ct
}

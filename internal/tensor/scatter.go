package tensor

import (
	"fmt"
	"math"
)

// Gather returns a new tensor whose row i is src.Row(index[i]). It is the
// "collect and materialise features along edges" step of the sparse tensor
// aggregation path (§3.3): for |E| edges the result has |E| rows, which is
// exactly the memory blow-up the paper's feature-fusion operator avoids.
func Gather(src *Tensor, index []int32) *Tensor {
	c := src.Cols()
	out := NewUninit(len(index), c) // every row is written below
	ParallelForGrain(len(index), GrainForCost(c), func(s, e int) {
		for i := s; i < e; i++ {
			copy(out.data[i*c:(i+1)*c], src.Row(int(index[i])))
		}
	})
	return out
}

// ScatterAdd reduces the rows of values into numOut rows, where row i of
// values is added into output row index[i]. This is the scatter_add of the
// paper's Fig. 8.
func ScatterAdd(values *Tensor, index []int32, numOut int) *Tensor {
	return scatter(values, index, numOut, false)
}

// ScatterMean is ScatterAdd followed by dividing each output row by its
// contribution count; rows with no contributions stay zero.
func ScatterMean(values *Tensor, index []int32, numOut int) *Tensor {
	return scatter(values, index, numOut, true)
}

// scatterCountsChecked counts contributions per output row, panicking on an
// out-of-range index (the validation the serial seed loop performed
// incrementally).
func scatterCountsChecked(index []int32, numOut int) []int32 {
	counts := make([]int32, numOut)
	for _, dst := range index {
		if dst < 0 || int(dst) >= numOut {
			panic(fmt.Sprintf("tensor: scatter index %d out of range [0,%d)", dst, numOut))
		}
		counts[dst]++
	}
	return counts
}

func scatter(values *Tensor, index []int32, numOut int, mean bool) *Tensor {
	if values.Rows() != len(index) {
		panic(fmt.Sprintf("tensor: scatter values rows %d != index length %d", values.Rows(), len(index)))
	}
	c := values.Cols()
	counts := scatterCountsChecked(index, numOut)
	out := NewUninit(numOut, c)
	// Writes are partitioned by destination row: each worker owns a
	// contiguous [lo, hi) range of output rows, scans the (cheap, int32)
	// index array, and accumulates only its own rows — disjoint writes, no
	// atomics. The ranges are weighted by contribution counts so a hub
	// destination cannot serialise a whole chunk.
	//
	// The scan is one sequential pass over full rows: scatter's source
	// stream is prefetch-bound, and both column-tiled structures measured —
	// re-scanning the index once per tile, and grouping edges per
	// destination with a counting sort — lost 2-3x to it (BENCH_kernels.json
	// history).
	prefix := make([]int64, numOut+1)
	for d, n := range counts {
		prefix[d+1] = prefix[d] + int64(n)
	}
	ParallelForWeighted(numOut, prefix, c, func(lo, hi int) {
		clear(out.data[lo*c : hi*c])
		for i, dst := range index {
			if int(dst) < lo || int(dst) >= hi {
				continue
			}
			AddUnrolled(out.data[int(dst)*c:(int(dst)+1)*c], values.data[i*c:(i+1)*c])
		}
		if !mean {
			return
		}
		for r := lo; r < hi; r++ {
			if counts[r] > 0 {
				ScaleUnrolled(out.data[r*c:(r+1)*c], 1/float32(counts[r]))
			}
		}
	})
	return out
}

// ScatterSoftmax normalises values so that, within each group of rows
// sharing the same index, every column position is softmax-ed over the
// group. It is the scatter_softmax used by MAGNN's intermediate-level
// attention in the paper's Fig. 7.
func ScatterSoftmax(values *Tensor, index []int32, numOut int) *Tensor {
	if values.Rows() != len(index) {
		panic(fmt.Sprintf("tensor: scatter values rows %d != index length %d", values.Rows(), len(index)))
	}
	c := values.Cols()
	counts := scatterCountsChecked(index, numOut)
	out := NewUninit(values.Rows(), c) // every row is written in pass 2
	maxes := GetBufUninit(numOut * c)
	sums := GetBufUninit(numOut * c)
	prefix := make([]int64, numOut+1)
	for d, n := range counts {
		prefix[d+1] = prefix[d] + int64(n)
	}
	// All three passes only touch the scratch rows of their own group range
	// and the out rows whose index falls in that range, so the whole
	// pipeline runs per-chunk without a global barrier between passes.
	ParallelForWeighted(numOut, prefix, 3*c, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := maxes[r*c : (r+1)*c]
			for j := range row {
				row[j] = float32(math.Inf(-1))
			}
			clear(sums[r*c : (r+1)*c])
		}
		// Pass 1: per-group column max for numeric stability.
		for i, dst := range index {
			if int(dst) < lo || int(dst) >= hi {
				continue
			}
			MaxUnrolled(maxes[int(dst)*c:int(dst+1)*c], values.data[i*c:(i+1)*c])
		}
		// Pass 2: exponentiate and accumulate per-group sums.
		for i, dst := range index {
			if int(dst) < lo || int(dst) >= hi {
				continue
			}
			mrow := maxes[int(dst)*c : int(dst+1)*c]
			srow := sums[int(dst)*c : int(dst+1)*c]
			vrow := values.data[i*c : (i+1)*c]
			orow := out.data[i*c : (i+1)*c]
			for j := 0; j < c; j++ {
				e := float32(math.Exp(float64(vrow[j] - mrow[j])))
				orow[j] = e
				srow[j] += e
			}
		}
		// Pass 3: normalise.
		for i, dst := range index {
			if int(dst) < lo || int(dst) >= hi {
				continue
			}
			srow := sums[int(dst)*c : int(dst+1)*c]
			orow := out.data[i*c : (i+1)*c]
			for j := 0; j < c; j++ {
				if srow[j] != 0 {
					orow[j] /= srow[j]
				}
			}
		}
	})
	PutBuf(maxes)
	PutBuf(sums)
	return out
}

// ScatterCounts returns how many rows map to each output row, the
// denominator used by mean-style backward passes.
func ScatterCounts(index []int32, numOut int) []int32 {
	counts := make([]int32, numOut)
	for _, dst := range index {
		counts[dst]++
	}
	return counts
}

package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// Redistribute shuffles a distributed tensor from its current distribution
// to dst (Section III-C): each processor sends the indices it no longer
// owns and receives its new ones via an all-to-all. Both distributions must
// describe the same global tensor over the same processor set. Every tensor
// dimension — including the channel axis — may be partitioned differently
// on the two sides, so channel-partitioned placements remap to replicated-
// channel (PC = 1) ones and back with the same code path. Forward and
// backward shuffles are the same operation with the distributions swapped,
// and the result is a pure permutation of the data: a round trip is bitwise
// identical.
func Redistribute(ctx *Ctx, x DistTensor, dst dist.Dist) DistTensor {
	src := x.Dist
	if src.N != dst.N || src.C != dst.C || src.H != dst.H || src.W != dst.W {
		panic(fmt.Sprintf("core: redistribute shape mismatch %v -> %v", src, dst))
	}
	p := ctx.C.Size()
	if src.Grid.Size() != p || dst.Grid.Size() != p {
		panic("core: redistribute requires both grids to cover the communicator")
	}
	me := ctx.Rank

	myN, myC, myH, myW := src.Block(me)
	send := make([][]float32, p)
	for q := 0; q < p; q++ {
		on, oc, oh, ow := src.Overlap(me, dst, q)
		if on.Empty() || oc.Empty() || oh.Empty() || ow.Empty() {
			continue
		}
		send[q] = x.Local.ExtractRegion(tensor.Region{
			Off:  []int{on.Lo - myN.Lo, oc.Lo - myC.Lo, oh.Lo - myH.Lo, ow.Lo - myW.Lo},
			Size: []int{on.Len(), oc.Len(), oh.Len(), ow.Len()},
		})
	}
	recv := ctx.C.AlltoAllV(send)

	out := NewDistTensor(dst, me)
	newN, newC, newH, newW := dst.Block(me)
	for q := 0; q < p; q++ {
		on, oc, oh, ow := dst.Overlap(me, src, q)
		if on.Empty() || oc.Empty() || oh.Empty() || ow.Empty() {
			continue
		}
		if len(recv[q]) != on.Len()*oc.Len()*oh.Len()*ow.Len() {
			panic(fmt.Sprintf("core: redistribute rank %d received %d words from %d, want %d",
				me, len(recv[q]), q, on.Len()*oc.Len()*oh.Len()*ow.Len()))
		}
		out.Local.InsertRegion(tensor.Region{
			Off:  []int{on.Lo - newN.Lo, oc.Lo - newC.Lo, oh.Lo - newH.Lo, ow.Lo - newW.Lo},
			Size: []int{on.Len(), oc.Len(), oh.Len(), ow.Len()},
		}, recv[q])
		ctx.C.Release(recv[q])
	}
	return out
}

// ShuffleVolume returns the number of words rank would send in a
// redistribution from src to dst — the Shuffle(Di, Dj) cost input of the
// performance model (Section V-B). The arithmetic is dist.SendWords.
func ShuffleVolume(src, dst dist.Dist, rank int) int { return dist.SendWords(src, dst, rank) }

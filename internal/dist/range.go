// Package dist describes how global tensors are partitioned over processor
// grids: half-open index ranges, balanced block partitions, 2-D process
// grids (sample x spatial), per-layer data distributions, and the
// convolution geometry arithmetic (required input/output intervals) that
// drives halo-exchange planning in internal/core. It is pure index algebra
// with no communication or storage of its own.
package dist

import "fmt"

// Range is a half-open interval [Lo, Hi) of global indices. Lo may be
// negative and Hi may exceed the global extent for "required" intervals that
// reach into zero padding.
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range (zero when empty).
func (r Range) Len() int {
	if r.Hi <= r.Lo {
		return 0
	}
	return r.Hi - r.Lo
}

// Empty reports whether the range contains no indices.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// Intersect returns the overlap of r and o (empty if disjoint).
func (r Range) Intersect(o Range) Range {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Range{Lo: lo, Hi: hi}
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// BlockPartition returns block j of a balanced partition of [0, total) into
// parts contiguous blocks: the first total%parts blocks hold one extra index,
// so block 0 is always a largest block (the property the performance model
// relies on when it prices the slowest rank).
func BlockPartition(total, parts, j int) Range {
	if parts <= 0 {
		panic(fmt.Sprintf("dist: block partition into %d parts", parts))
	}
	if j < 0 || j >= parts {
		panic(fmt.Sprintf("dist: block index %d out of range for %d parts", j, parts))
	}
	base := total / parts
	rem := total % parts
	lo := j*base + min(j, rem)
	size := base
	if j < rem {
		size++
	}
	return Range{Lo: lo, Hi: lo + size}
}

package perfmodel

import "repro/internal/dist"

// Conv3DSpec is the global description of a 3-D convolutional layer — the
// extension the paper's conclusion singles out: "as 3D data becomes more
// widespread, spatial parallelism, which can be easily extended to 3D,
// becomes critical, and more advantageous, due to the more favorable
// surface-to-volume ratio."
type Conv3DSpec struct {
	N, C, D, H, W, F int
	Geom             dist.ConvGeom
}

// localDims3 returns the largest shard's local extents under grid.
func (s Conv3DSpec) localDims3(g dist.Grid3) (n, od, oh, ow, id, ih, iw int) {
	n = dist.BlockPartition(s.N, g.PN, 0).Len()
	od = dist.BlockPartition(s.Geom.OutSize(s.D), g.PD, 0).Len()
	oh = dist.BlockPartition(s.Geom.OutSize(s.H), g.PH, 0).Len()
	ow = dist.BlockPartition(s.Geom.OutSize(s.W), g.PW, 0).Len()
	id = dist.BlockPartition(s.D, g.PD, 0).Len()
	ih = dist.BlockPartition(s.H, g.PH, 0).Len()
	iw = dist.BlockPartition(s.W, g.PW, 0).Len()
	return
}

// HaloWords3 counts the words a rank receives in one 3-D halo exchange:
// two face messages per split dimension (O words deep over the local face
// area), plus edge and corner messages, generalizing the Section V-A
// formula to three dimensions.
func (s Conv3DSpec) HaloWords3(g dist.Grid3) int {
	o := s.Geom.K / 2
	if o == 0 {
		return 0
	}
	n, _, _, _, id, ih, iw := s.localDims3(g)
	base := o * n * s.C
	words := 0
	if g.PD > 1 {
		words += 2 * base * ih * iw
	}
	if g.PH > 1 {
		words += 2 * base * id * iw
	}
	if g.PW > 1 {
		words += 2 * base * id * ih
	}
	// Edges.
	if g.PD > 1 && g.PH > 1 {
		words += 4 * base * o * iw
	}
	if g.PD > 1 && g.PW > 1 {
		words += 4 * base * o * ih
	}
	if g.PH > 1 && g.PW > 1 {
		words += 4 * base * o * id
	}
	// Corners.
	if g.PD > 1 && g.PH > 1 && g.PW > 1 {
		words += 8 * base * o * o
	}
	return words
}

// HaloWords2 counts the words a rank receives in the 2-D exchange of a
// ConvSpec (the Section V-A message sizes, summed).
func (s ConvSpec) HaloWords2(g dist.Grid) int {
	o := s.Geom.K / 2
	if o == 0 {
		return 0
	}
	n, _, _, ih, iw := s.localDims(g)
	base := o * n * s.C
	words := 0
	if g.PH > 1 {
		words += 2 * base * iw
	}
	if g.PW > 1 {
		words += 2 * base * ih
	}
	if g.PH > 1 && g.PW > 1 {
		words += 4 * base * o
	}
	return words
}

// SurfaceToVolume quantifies the conclusion's claim that 3-D spatial
// parallelism is "more advantageous, due to the more favorable
// surface-to-volume ratio": at the same linear resolution L and the same
// processor count, splitting three axes needs fewer cuts per axis than
// splitting two (3·p^(1/3) total surface cuts vs 2·√p), so the halo volume
// per local element is smaller. Returns halo words per local spatial
// element for the best balanced 2-D and 3-D decompositions on `ways`
// processors of an L=512 sample with c channels and a k-kernel. The
// advantage is strict once ways has a balanced cube factorization (64,
// 512); at 8 or 16 ways the factorizations tie, matching the theory.
func SurfaceToVolume(c, k, ways int) (ratio2D, ratio3D float64) {
	const l = 512
	geom := dist.ConvGeom{K: k, S: 1, Pad: k / 2}
	s2 := ConvSpec{N: 1, C: c, H: l, W: l, F: c, Geom: geom}
	s3 := Conv3DSpec{N: 1, C: c, D: l, H: l, W: l, F: c, Geom: geom}
	var g2 dist.Grid
	var g3 dist.Grid3
	switch ways {
	case 8:
		g2 = dist.Grid{PN: 1, PH: 4, PW: 2}
		g3 = dist.Grid3{PN: 1, PD: 2, PH: 2, PW: 2}
	case 64:
		g2 = dist.Grid{PN: 1, PH: 8, PW: 8}
		g3 = dist.Grid3{PN: 1, PD: 4, PH: 4, PW: 4}
	case 512:
		g2 = dist.Grid{PN: 1, PH: 16, PW: 32}
		g3 = dist.Grid3{PN: 1, PD: 8, PH: 8, PW: 8}
	default:
		g2 = dist.Grid{PN: 1, PH: 4, PW: 4}
		g3 = dist.Grid3{PN: 1, PD: 4, PH: 2, PW: 2}
	}
	n2, _, _, ih2, iw2 := s2.localDims(g2)
	elems2 := float64(n2 * c * ih2 * iw2)
	n3, _, _, _, id3, ih3, iw3 := s3.localDims3(g3)
	elems3 := float64(n3 * c * id3 * ih3 * iw3)
	ratio2D = float64(s2.HaloWords2(g2)) / elems2
	ratio3D = float64(s3.HaloWords3(g3)) / elems3
	return
}

package query

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/xmltree"
)

const maxIntValue = int(^uint(0) >> 1)

// seedsProveEmpty applies the witness-pair lower bounds to the
// groups' witness nodes: every answer fragment is connected and
// contains one witness per group, so for any pair of its witnesses
// (a, b) with LCA l it also contains l and both root-ward paths,
// forcing
//
//	size    ≥ depth(a) + depth(b) − 2·depth(l) + 1
//	height  ≥ max(depth(a), depth(b)) − depth(l)
//	width   ≥ max(id(a), id(b)) − id(l)   (pre-order span; l precedes both)
//	maxdepth ≥ depth of the group witness it contains
//
// If, for some group pair, the minimum of a bounded metric over ALL
// witness pairs exceeds its pushed limit — or some group's minimum
// witness depth exceeds the depth limit — no answer can exist and the
// evaluation finishes empty without materializing anything. The tree's
// O(1) LCA stands in for the Dewey common prefix (both compute the
// same depths; the tree adds the LCA's node ID, tightening the width
// bound). pp caps the per-pair work; infeasible pairs prune nothing.
func seedsProveEmpty(doc *xmltree.Document, groups [][]xmltree.NodeID, b core.Bounds, pp cost.PostingPrune) bool {
	if b.Depth > 0 {
		for _, g := range groups {
			minD := maxIntValue
			for _, id := range g {
				if d := doc.Depth(id); d < minD {
					minD = d
				}
			}
			if minD > b.Depth {
				return true
			}
		}
	}
	if !b.Pairwise() || len(groups) < 2 {
		return false
	}
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			if !pp.PairFeasible(len(groups[i]), len(groups[j])) {
				continue
			}
			if witnessPairViolated(doc, groups[i], groups[j], b) {
				return true
			}
		}
	}
	return false
}

// witnessPairViolated reports whether every witness pair across the
// two groups violates some pushed bound (core.PairBound), with the
// tree's O(1) LCA; the span runs from the LCA to the later witness.
func witnessPairViolated(doc *xmltree.Document, wi, wj []xmltree.NodeID, b core.Bounds) bool {
	pb := b.PairBound()
	for _, na := range wi {
		da := doc.Depth(na)
		for _, nc := range wj {
			l := doc.LCA(na, nc)
			if pb.Fit(da, doc.Depth(nc), doc.Depth(l), int(max(na, nc)-l)) {
				return false
			}
		}
	}
	return pb.Violated()
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

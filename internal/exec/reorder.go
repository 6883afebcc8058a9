package exec

import (
	"sort"

	"wlpm/internal/record"
)

// Join-order optimization: the written plan joins in whatever order the
// query author nested the Join calls, but every join in a chain is an
// equi-join on attribute 0 of each side — one shared key domain — so the
// leaves can be joined in any order without changing the result multiset.
// The planner rebuilds each fully-unpinned join chain as a right-deep
// spine over the leaves sorted by estimated cardinality: the smallest
// inputs become the build sides (t of the cost model), which is what the
// paper's join costs are most sensitive to. Because concatenation is
// associative, the output column layout depends only on the leaf order;
// when that order changes, a compensating projection (absorbed by the
// spine's top join like any Filter/Project chain over a join, so it adds
// no write and composes with a user projection above it) restores the
// written layout, so downstream operators and the final schema are
// unaffected.
// Row order of a bare join result may differ from the written-order
// plan's — exactly as it already differs between physical join
// algorithms — and is canonicalized by any OrderBy/GroupBy above.

// reorderJoins rewrites every maximal unpinned join chain of the plan
// smallest-build-first. Chains containing a pinned join algorithm are
// left exactly as written: a pinned choice is an instruction, and
// rebuilding the tree around it would silently change its inputs.
func (c *compiler) reorderJoins(p *Plan) *Plan {
	if p == nil || p.err != nil {
		return p
	}
	if p.kind == planJoin && p.joinA == nil {
		if leaves, rightDeep, ok := flattenJoinChain(p); ok {
			rewritten := make([]*Plan, len(leaves))
			changed := false
			for i, l := range leaves {
				rewritten[i] = c.reorderJoins(l)
				changed = changed || rewritten[i] != l
			}
			return c.rebuildChain(p, rewritten, rightDeep && !changed)
		}
	}
	if p.left == nil && p.right == nil {
		return p
	}
	d := *p
	d.left = c.reorderJoins(p.left)
	d.right = c.reorderJoins(p.right)
	if d.left == p.left && d.right == p.right {
		return p
	}
	return &d
}

// flattenJoinChain collects the chain's leaves in written (left-to-right)
// order. ok is false when any join in the chain pins its algorithm;
// rightDeep reports whether the written tree is already the spine shape
// the rebuild produces.
func flattenJoinChain(p *Plan) (leaves []*Plan, rightDeep, ok bool) {
	if p.kind != planJoin {
		return []*Plan{p}, true, true
	}
	if p.joinA != nil {
		return nil, false, false
	}
	l, _, ok := flattenJoinChain(p.left)
	if !ok {
		return nil, false, false
	}
	r, rdRight, ok := flattenJoinChain(p.right)
	if !ok {
		return nil, false, false
	}
	return append(l, r...), p.left.kind != planJoin && rdRight, true
}

// rebuildChain re-nests the chain as a right-deep spine over the leaves
// sorted ascending by estimated rows (stable, so ties keep the written
// order), adding a compensating projection when the leaf order changed.
// identity short-circuits to the original node when the sorted order and
// tree shape already match the written plan.
func (c *compiler) rebuildChain(orig *Plan, leaves []*Plan, identity bool) *Plan {
	order := make([]int, len(leaves))
	for i := range order {
		order[i] = i
	}
	rows := make([]int, len(leaves))
	for i, l := range leaves {
		rows[i] = c.estimateNode(l).rows
	}
	sort.SliceStable(order, func(a, b int) bool { return rows[order[a]] < rows[order[b]] })
	permuted := false
	for i, o := range order {
		if i != o {
			permuted = true
			break
		}
	}
	if !permuted && identity {
		return orig
	}
	if permuted && !projectable(leaves) {
		// A leaf's record is not attribute-aligned, so no projection can
		// restore the written layout: keep the written order.
		permuted = false
		for i := range order {
			order[i] = i
		}
		if identity {
			return orig
		}
	}
	spine := leaves[order[len(order)-1]]
	for i := len(order) - 2; i >= 0; i-- {
		spine = &Plan{kind: planJoin, left: leaves[order[i]], right: spine}
	}
	if !permuted {
		spine.hint = orig.hint
		return spine
	}
	c.reordered = true
	proj := &Plan{kind: planProject, left: spine, attrs: compensatingAttrs(leaves, order)}
	// A GroupHint set on the join result must stay visible to the nearest
	// group-by above, which reads its input node's hint.
	proj.hint = orig.hint
	return proj
}

// projectable reports whether every leaf's record splits into whole
// 8-byte attributes, the precondition of the compensating projection.
func projectable(leaves []*Plan) bool {
	for _, l := range leaves {
		if planRecordSize(l)%record.AttrSize != 0 {
			return false
		}
	}
	return true
}

// compensatingAttrs maps the reordered concatenation back to the written
// layout: for each leaf in written order, its attributes at their offset
// within the new leaf order.
func compensatingAttrs(leaves []*Plan, order []int) []int {
	width := func(i int) int { return planRecordSize(leaves[i]) / record.AttrSize }
	offset := make([]int, len(leaves)) // attribute offset of each leaf in the new layout
	at := 0
	for _, o := range order {
		offset[o] = at
		at += width(o)
	}
	attrs := make([]int, 0, at)
	for i := range leaves {
		for a := 0; a < width(i); a++ {
			attrs = append(attrs, offset[i]+a)
		}
	}
	return attrs
}

// planRecordSize is the byte width of the node's output records,
// computed logically (0 when a construction error makes it undefined).
func planRecordSize(p *Plan) int {
	if p == nil || p.err != nil {
		return 0
	}
	switch p.kind {
	case planScan:
		return p.col.RecordSize()
	case planProject:
		return len(p.attrs) * record.AttrSize
	case planJoin:
		return planRecordSize(p.left) + planRecordSize(p.right)
	case planGroupBy:
		return record.Size
	default:
		return planRecordSize(p.left)
	}
}

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
		rows[i] = c.estimate(l).rows
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

// Build-side narrowing: nested loops holds ⌈f·|T|/M⌉ blocks of the left
// input (§2.2), and every other join partitions or writes it, so a left
// record the plan keeps whole while the chain above the join reads a few
// of its attributes wastes memory, passes and writes on the rest. The
// rewrite below runs after the join-order rewrite, over every Filter/
// Project chain that sits on a join whose row order nothing downstream
// can see — a sort or group-by canonicalizes it, directly or through
// further joins and chains: when the chain reads fewer than all of the
// join's left attributes (a0, the join key, always counts), a projection
// of exactly those, ascending, goes under the join's left input and the
// chain's steps are remapped to the narrower layout. A narrower build
// side changes how the join cuts its input into blocks and partitions,
// and with that the order it emits its rows in; under a limit or at the
// plan's root that order is the result, so there the join is left as
// written and the output stays byte for byte the reference's. The
// projection is an ordinary chain step, so it runs where any chain runs
// (chain.go): a zero-write view over a stored source, absorbed into a
// blocking producer's emit — its temp, or the fed sort's intake, is
// narrower too — and a Stream elsewhere. A chain that projects nothing
// keeps every attribute and leaves the join alone. The materialize-every-
// step reference compiles the plan as written.

// narrowBuilds applies build-side narrowing to every chain over a join
// in p, the inner joins of a narrowed left input included. unseen says
// the order p emits its rows in cannot show in the plan's result.
func (c *compiler) narrowBuilds(p *Plan, unseen bool) *Plan {
	if p == nil || p.err != nil {
		return p
	}
	if p.kind != planFilter && p.kind != planProject {
		return c.narrowChildren(p, unseen)
	}
	var steps []*Plan // the chain, top first
	q := p
	for q.kind == planFilter || q.kind == planProject {
		steps = append(steps, q)
		q = q.left
	}
	base, remap := q, []int(nil)
	if q.kind == planJoin && unseen {
		base, remap = narrowBuild(q, steps)
	}
	base = c.narrowChildren(base, unseen)
	if base == q {
		return p
	}
	for i := len(steps) - 1; i >= 0; i-- {
		d := *steps[i]
		d.left = base
		// The steps up to the first projection read the join's layout;
		// above it they read the projection's, which is unchanged.
		if remap != nil {
			if d.kind == planFilter {
				d.pred.Attr = remap[d.pred.Attr]
			} else {
				d.attrs = make([]int, len(steps[i].attrs))
				for k, a := range steps[i].attrs {
					d.attrs[k] = remap[a]
				}
				remap = nil
			}
		}
		base = &d
	}
	return base
}

// narrowChildren applies narrowBuilds beneath p, whose own row order is
// unseen or not: a sort or group-by hides its input's order, a join
// passes its own on to its inputs, and a limit shows it — which rows it
// keeps depends on it.
func (c *compiler) narrowChildren(p *Plan, unseen bool) *Plan {
	if p.left == nil && p.right == nil {
		return p
	}
	switch p.kind {
	case planOrderBy, planGroupBy:
		unseen = true
	case planLimit:
		unseen = false
	}
	d := *p
	d.left = c.narrowBuilds(p.left, unseen)
	d.right = c.narrowBuilds(p.right, unseen)
	if d.left == p.left && d.right == p.right {
		return p
	}
	return &d
}

// narrowBuild projects the join j's left input to the attributes its
// chain — steps, top first — reads. It returns the narrowed join and the
// remapping of the join's attributes to the narrowed layout, or j and nil
// when every left attribute is read, the chain keeps them all, or an
// attribute is out of range (build reports that).
func narrowBuild(j *Plan, steps []*Plan) (*Plan, []int) {
	lw, rw := planRecordSize(j.left), planRecordSize(j.right)
	if lw%record.AttrSize != 0 || rw%record.AttrSize != 0 {
		return j, nil
	}
	left, width := lw/record.AttrSize, (lw+rw)/record.AttrSize
	read := make([]bool, width)
	var out []int // the chain's current layout in join attributes; nil: the join's own
	at := func(a int) int {
		if out != nil {
			if a < 0 || a >= len(out) {
				return -1
			}
			return out[a]
		}
		if a < 0 || a >= width {
			return -1
		}
		return a
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if st := steps[i]; st.kind == planFilter {
			a := at(st.pred.Attr)
			if a < 0 {
				return j, nil
			}
			read[a] = true
		} else {
			next := make([]int, len(st.attrs))
			for k, a := range st.attrs {
				if next[k] = at(a); next[k] < 0 {
					return j, nil
				}
			}
			out = next
		}
	}
	if out == nil {
		return j, nil
	}
	for _, a := range out {
		read[a] = true
	}
	read[0] = true
	var keep []int
	for a := 0; a < left; a++ {
		if read[a] {
			keep = append(keep, a)
		}
	}
	if len(keep) == left {
		return j, nil
	}
	remap := make([]int, width)
	for i, a := range keep {
		remap[a] = i
	}
	for a := left; a < width; a++ {
		remap[a] = a - left + len(keep)
	}
	d := *j
	d.left = &Plan{kind: planProject, left: j.left, attrs: keep}
	return &d, remap
}

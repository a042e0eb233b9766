package engine

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/plan"
)

// WorkerTask is the unit of work one CF worker executes: the shared
// fragment plan over this task's file partition.
type WorkerTask struct {
	Files []catalog.FileMeta
}

// CFSplit is a plan decomposed into CF worker tasks plus a coordinator
// merge plan.
type CFSplit struct {
	QueryID string
	Tasks   []WorkerTask

	workerPlan plan.Node      // fragment executed by each worker
	partScan   *plan.ScanNode // the partitioned scan inside workerPlan
	interm     *plan.ScanNode // synthetic scan over intermediates
	mergePlan  plan.Node
}

// SplitForCF decomposes a bound plan into at most `parts` CF worker tasks:
// every shape except a join in the workers, whose build cannot be shared
// across a process boundary. It declines, with an error, every plan that
// must run whole (see split); the caller then runs that plan on the
// coordinator.
func (e *Engine) SplitForCF(node plan.Node, queryID string, parts int) (*CFSplit, error) {
	return e.split(node, queryID, parts, false)
}

// split decomposes a plan into at most `parts` tasks, for the VM and the CF
// tier alike, or declines, with an error, a plan that must run whole: one
// with no scan, one whose partitioned table has no files, and one whose
// merge plan may stop early (a LIMIT with no blocking operator between it
// and the workers' output). A lazy merge would leave the workers' scans
// running past what it pulls — every worker finishes its partition before
// the merge reads it — so BytesScanned, the billing unit, would be
// inflated. Run whole, the plan pulls lazily and bills the minimum.
//
// shared says whether the tasks are in-process VM workers, which share
// memory: a worker fragment may then hold a left-deep join chain whose
// builds the caller prepares once for every task. A VM worker hands the
// merge its finished output, so a VM split is taken only where the worker
// plan blocks anyway — partial aggregation or worker top-N; a streaming
// plan is declined and runs whole. The shapes are tried most-specific
// first: partial aggregation, worker top-N for ORDER BY + LIMIT, and, on
// CF only, pushdown of the largest scan alone.
func (e *Engine) split(node plan.Node, queryID string, parts int, shared bool) (*CFSplit, error) {
	scans := plan.Scans(node)
	if len(scans) == 0 {
		return nil, fmt.Errorf("engine: plan has no scans to push down")
	}
	split := &CFSplit{QueryID: queryID}
	agg, _, aggCount := analyze(node)
	topn := topNShape(node)
	// pushable reports whether w can run in a worker and records its probe,
	// the scan the tasks partition.
	var probe *plan.ScanNode
	pushable := func(w plan.Node) (ok bool) {
		probe, ok = pushableFragment(w, shared)
		return ok
	}
	switch {
	case agg != nil && aggCount == 1 && !hasDistinctAgg(agg) && pushable(agg.Child):
		split.splitPartialAgg(node, agg)
	case topn != nil && pushable(topn.Child):
		// The worker runs the bounded sort, so each returns at most
		// LIMIT+OFFSET rows of its partition; the merge runs the same
		// bounded sort over the k·N survivors, in partition order.
		split.pushDown(node, topn, topn.Child)
	case shared:
		return nil, fmt.Errorf("engine: the worker plan would stream; the plan runs whole")
	default:
		probe = scans[0]
		for _, s := range scans[1:] {
			if s.Table.TotalBytes() > probe.Table.TotalBytes() {
				probe = s
			}
		}
		split.pushDown(node, probe, probe)
	}
	split.partScan = probe

	if len(probe.Table.Files) == 0 {
		return nil, fmt.Errorf("engine: table %s has no files", probe.Table.Name)
	}
	if !drainsFully(split.mergePlan, split.interm) {
		return nil, fmt.Errorf("engine: merge plan may stop early; the plan runs whole")
	}
	split.partition(parts)
	return split, nil
}

// partition sets the split's tasks to `parts` contiguous file ranges of the
// partitioned scan (at least one, fewer when the table has fewer files),
// sizes differing by at most one file. Contiguity matters beyond balance:
// consuming task outputs in partition order then reproduces the serial
// plan's arrival order exactly, so sort ties, top-N cutoffs and group
// first-appearance orders resolve identically to serial execution — not
// merely deterministically.
func (s *CFSplit) partition(parts int) {
	files := s.partScan.Table.Files
	parts = min(max(parts, 1), len(files))
	s.Tasks = make([]WorkerTask, parts)
	for p := range s.Tasks {
		s.Tasks[p] = WorkerTask{Files: files[p*len(files)/parts : (p+1)*len(files)/parts]}
	}
}

// pushDown makes worker the worker plan and swaps the subtree `replaced` of
// root for a scan over the workers' intermediates in the merge plan.
func (s *CFSplit) pushDown(root, worker, replaced plan.Node) {
	s.workerPlan = worker
	s.interm = intermScan(s.QueryID, worker.Schema())
	s.mergePlan = replaceNode(root, replaced, s.interm)
}

// drainsFully reports whether executing plan n is guaranteed to consume the
// target scan to exhaustion. A LimitNode stops pulling once satisfied, so
// the target is only safe if a blocking operator — sort (bounded or not),
// aggregation, or a join's build side, all of which materialize their
// input before emitting — sits between the limit and the target.
func drainsFully(n plan.Node, target *plan.ScanNode) bool {
	path := pathTo(n, target)
	if path == nil {
		return false // target unreachable: be conservative
	}
	// Walk from the target upward; once a blocking operator is crossed,
	// limits above it cannot cut the target's consumption short.
	protected := false
	for i := len(path) - 2; i >= 0; i-- {
		switch x := path[i].(type) {
		case *plan.SortNode, *plan.TopNNode, *plan.AggNode:
			protected = true
		case *plan.JoinNode:
			if x.Right == path[i+1] {
				protected = true
			}
		case *plan.LimitNode:
			if !protected {
				return false
			}
		}
	}
	return true
}

// pathTo returns the root→target node path, or nil.
func pathTo(n plan.Node, target *plan.ScanNode) []plan.Node {
	if n == plan.Node(target) {
		return []plan.Node{n}
	}
	for _, c := range n.Children() {
		if p := pathTo(c, target); p != nil {
			return append([]plan.Node{n}, p...)
		}
	}
	return nil
}

// pushableFragment reports whether subtree w can run per probe-partition in
// a worker: row-local operators (filters, projections) over either a single
// scan, which is the probe, or a left-deep chain of hash joins, allowed only
// when the tasks share their builds. Each join's build (right) side must be
// a single-scan pipeline with no join inside it; the probe is the bottom
// join's left scan, and it must be at least as large as every build side's
// table, so the partitioned scan is the dominant one.
func pushableFragment(w plan.Node, shared bool) (*plan.ScanNode, bool) {
	var buildBytes int64
	for {
		switch x := w.(type) {
		case *plan.FilterNode:
			w = x.Child
		case *plan.ProjectNode:
			w = x.Child
		case *plan.JoinNode:
			build, ok := pushableFragment(x.Right, false)
			if !shared || !ok {
				return nil, false
			}
			buildBytes = max(buildBytes, build.Table.TotalBytes())
			w = x.Left
		case *plan.ScanNode:
			return x, x.Table.TotalBytes() >= buildBytes
		default:
			return nil, false
		}
	}
}

// topNShape matches root = Limit → [hidden-sort-key trim Project] → TopN,
// the binder's ORDER BY … LIMIT, and returns the TopN, or nil.
func topNShape(root plan.Node) *plan.TopNNode {
	lim, ok := root.(*plan.LimitNode)
	if !ok {
		return nil
	}
	child := lim.Child
	if p, ok := child.(*plan.ProjectNode); ok {
		child = p.Child
	}
	topn, _ := child.(*plan.TopNNode)
	return topn
}

// analyze finds the unique AggNode (if any), the join count and agg count.
func analyze(node plan.Node) (*plan.AggNode, int, int) {
	var agg *plan.AggNode
	joins, aggs := 0, 0
	var rec func(plan.Node)
	rec = func(n plan.Node) {
		switch x := n.(type) {
		case *plan.AggNode:
			agg = x
			aggs++
		case *plan.JoinNode:
			joins++
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(node)
	return agg, joins, aggs
}

func hasDistinctAgg(a *plan.AggNode) bool {
	for _, sp := range a.Aggs {
		if sp.Distinct {
			return true
		}
	}
	// A pure group-by-all node (DISTINCT) merges correctly (dedup of
	// dedups), so it does not disqualify.
	return false
}

// splitPartialAgg builds worker partial aggregation plus coordinator final
// aggregation.
func (s *CFSplit) splitPartialAgg(root plan.Node, agg *plan.AggNode) {
	ng := len(agg.GroupBy)
	var partial []plan.AggSpec
	// fromPartial[i] lists the partial-output positions feeding original
	// agg i (two entries for AVG: sum then count).
	fromPartial := make([][]int, len(agg.Aggs))
	for i, sp := range agg.Aggs {
		switch sp.Func {
		case plan.AggCountStar, plan.AggCount:
			fromPartial[i] = []int{len(partial)}
			partial = append(partial, sp) // output INT64 count
		case plan.AggSum, plan.AggMin, plan.AggMax:
			fromPartial[i] = []int{len(partial)}
			partial = append(partial, sp)
		case plan.AggAvg:
			sum := plan.AggSpec{Func: plan.AggSum, Arg: sp.Arg, Name: sp.Name + "_sum", Ty: sumType(sp.Arg.Type())}
			cnt := plan.AggSpec{Func: plan.AggCount, Arg: sp.Arg, Name: sp.Name + "_count", Ty: col.INT64}
			fromPartial[i] = []int{len(partial), len(partial) + 1}
			partial = append(partial, sum, cnt)
		}
	}

	s.workerPlan = &plan.AggNode{
		Child:      agg.Child,
		GroupBy:    agg.GroupBy,
		GroupNames: agg.GroupNames,
		Aggs:       partial,
	}
	wSchema := s.workerPlan.Schema()

	// Synthetic scan over worker intermediates.
	s.interm = intermScan(s.QueryID, wSchema)

	// Final aggregation over the intermediates.
	finalAgg := &plan.AggNode{Child: s.interm}
	for i := 0; i < ng; i++ {
		f := wSchema.Fields[i]
		finalAgg.GroupBy = append(finalAgg.GroupBy, derived(i, f))
		finalAgg.GroupNames = append(finalAgg.GroupNames, f.Name)
	}
	for j, sp := range partial {
		f := wSchema.Fields[ng+j]
		arg := derived(ng+j, f)
		var fn plan.AggFunc
		switch sp.Func {
		case plan.AggCountStar, plan.AggCount, plan.AggSum:
			fn = plan.AggSum
		case plan.AggMin:
			fn = plan.AggMin
		case plan.AggMax:
			fn = plan.AggMax
		}
		finalAgg.Aggs = append(finalAgg.Aggs, plan.AggSpec{
			Func: fn, Arg: arg, Name: sp.Name, Ty: f.Type,
		})
	}
	fSchema := finalAgg.Schema()

	// Mapping projection reconstructing the original aggregate output.
	mapping := &plan.ProjectNode{Child: finalAgg}
	origSchema := agg.Schema()
	for i := 0; i < ng; i++ {
		mapping.Exprs = append(mapping.Exprs, derived(i, fSchema.Fields[i]))
		mapping.Names = append(mapping.Names, origSchema.Fields[i].Name)
	}
	for i, sp := range agg.Aggs {
		var ex plan.BoundExpr
		if sp.Func == plan.AggAvg {
			sumPos, cntPos := ng+fromPartial[i][0], ng+fromPartial[i][1]
			ex = &plan.BBinary{
				Op: "/",
				L:  derived(sumPos, fSchema.Fields[sumPos]),
				R:  derived(cntPos, fSchema.Fields[cntPos]),
				Ty: col.FLOAT64,
			}
		} else {
			// COUNT merged via SUM can yield NULL only if no partials
			// exist, which cannot happen (workers always emit).
			pos := ng + fromPartial[i][0]
			ex = derived(pos, fSchema.Fields[pos])
		}
		mapping.Exprs = append(mapping.Exprs, ex)
		mapping.Names = append(mapping.Names, origSchema.Fields[ng+i].Name)
	}

	s.mergePlan = replaceNode(root, agg, mapping)
}

func sumType(t col.Type) col.Type {
	if t == col.FLOAT64 {
		return col.FLOAT64
	}
	return col.INT64
}

func derived(ordinal int, f col.Field) *plan.BCol {
	return &plan.BCol{
		Rel: plan.DerivedRel, Ordinal: ordinal,
		Name: f.Name, Ty: f.Type, Nullable: f.Nullable,
	}
}

// intermScan builds a synthetic scan node over worker output files.
func intermScan(queryID string, schema *col.Schema) *plan.ScanNode {
	t := &catalog.Table{Name: "_interm_" + queryID}
	for _, f := range schema.Fields {
		t.Columns = append(t.Columns, catalog.Column{Name: f.Name, Type: f.Type, Nullable: true})
	}
	return &plan.ScanNode{
		DB:      "_intermediate",
		Table:   t,
		Binding: t.Name,
		Rel:     0,
		Cols:    identity(schema.Len()),
	}
}

// replaceNode returns a copy of the tree with old swapped for repl. Nodes
// outside the root→old path are shared.
func replaceNode(n, old, repl plan.Node) plan.Node {
	if n == old {
		return repl
	}
	switch x := n.(type) {
	case *plan.ScanNode:
		return x
	case *plan.FilterNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	case *plan.ProjectNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	case *plan.JoinNode:
		cp := *x
		cp.Left = replaceNode(x.Left, old, repl)
		cp.Right = replaceNode(x.Right, old, repl)
		return &cp
	case *plan.AggNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	case *plan.SortNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	case *plan.TopNNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	case *plan.LimitNode:
		cp := *x
		cp.Child = replaceNode(x.Child, old, repl)
		return &cp
	default:
		panic(fmt.Sprintf("engine: replaceNode unknown node %T", n))
	}
}

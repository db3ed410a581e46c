// Package p2pmatch implements the odinvet analyzer that certifies
// point-to-point protocols deadlock-free by abstract interpretation.
//
// odinstress *searches* schedules for deadlocks and can only ever witness
// their presence; p2pmatch closes the complementary gap from ROADMAP item 4
// and *proves* their absence for the restricted — but dominant — protocol
// shape where peers and tags are compile-time functions of c.Rank() and
// c.Size(). Per protocol scope it interprets the statement tree once per
// concrete rank for every communicator size P in {1,2,3,4,5,7,8},
// extracting each rank's ordered trace of Send/Recv/SendRecv events and
// collective barriers, then model-checks the traces: every Recv must match
// a Send under the comm package's mailbox semantics (first arriving message
// with (src==AnySource||msg.src==src) && (tag==AnyTag||msg.tag==tag),
// per-source non-overtaking), and no rendezvous cycle may leave a rank
// blocked forever.
//
// The exploration is exact for the comm semantics it models, because comm's
// Send is eager (the payload is copied and queued; Send never blocks).
// Under eager sends, running every rank forward to its next Recv or
// collective ("maximal progress") loses no behaviors, and the only true
// scheduling freedom is which pending message a wildcard Recv consumes.
// The checker therefore advances all ranks through sends, treats each
// collective as a full barrier, and branches only at receives — over the
// per-source oldest pending matching message, which per-source FIFO
// delivery makes the unique candidate from that source. Memoized DFS over
// these states visits every reachable matching; a state where some rank is
// blocked and no receive can fire is a deadlock witness, classified as:
//
//   - unmatched receive: no Send anywhere in the protocol matches;
//   - wildcard count mismatch: matching Sends exist, but other receives
//     consumed them all;
//   - cyclic rendezvous wait: matching Sends are still pending behind the
//     program counters of blocked ranks (reported with the waits-for cycle);
//   - collective divergence: a rank waits at a collective after a peer has
//     already left the protocol;
//   - lost message: a Send that no execution ever receives (reported only
//     when the protocol otherwise completes).
//
// A protocol scope is either the body of a function literal handed to
// comm.Run/RunStats/RunModel/RunConfig (when the size argument is constant,
// only that P is checked) or any function declaration that performs
// point-to-point calls directly. Conditions the interpreter cannot evaluate
// are classified by commsym's rank-taint: rank-derived unknowns make the
// protocol non-affine ("cannot certify"), while rank-independent unknowns
// (transport kind, error checks, configuration) are assumed uniform across
// ranks and explored both ways as whole-protocol scenarios. Error-abort
// arms — branches that end in a non-control return or a panic/t.Fatal —
// are assumed not taken, matching commsym's documented abort-path stance.
//
// Everything outside the provable shape is reported as "cannot certify"
// rather than silently skipped: data-dependent peers or tags, Probe-guarded
// receives, unbounded or data-dependent loops around communication,
// point-to-point on Split sub-communicators (their ranks are renumbered),
// communication through same-package helper calls, communication in
// goroutines/defers, and protocols that mix wildcard receives with
// collectives. A human who has vetted such a protocol silences the
// analyzer with //lint:allow p2pmatch and a justification. Cross-package
// calls are assumed non-communicating: framework primitives reserve their
// own tag ranges (enforced by tagcheck and the tagregistry), so they cannot
// steal a protocol's messages.
package p2pmatch

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"odinhpc/internal/analysis"
	"odinhpc/internal/analysis/commsym"
)

// Analyzer certifies point-to-point protocols deadlock-free, or reports
// why it cannot.
var Analyzer = &analysis.Analyzer{
	Name: "p2pmatch",
	Doc: "certifies point-to-point Send/Recv protocols deadlock-free by " +
		"interpreting them per rank for P in {1,2,3,4,5,7,8} and matching " +
		"every receive to a send; reports unmatched receives, lost messages, " +
		"wildcard count mismatches and rendezvous cycles, and flags " +
		"non-affine protocols it cannot certify; annotate hand-vetted " +
		"protocols with //lint:allow p2pmatch",
	Run: run,
}

// rankCounts are the communicator sizes a size-polymorphic protocol is
// concretized over: every count up to 5, plus 7 and 8 to catch power-of-two
// and odd-size asymmetries in tree- and ring-shaped protocols.
var rankCounts = []int64{1, 2, 3, 4, 5, 7, 8}

// Interpretation and exploration budgets. Exceeding one is reported as
// "cannot certify", never ignored.
const (
	maxScenarios   = 64    // uniform-condition resolutions per scope
	maxIterations  = 4096  // loop iterations per rank interpretation
	maxSteps       = 20000 // statements per rank interpretation
	maxEventsRank  = 512   // protocol events per rank
	maxMatchStates = 20000 // memoized states per (P, scenario) exploration
)

// p2pNames are the point-to-point methods on comm.Comm.
var p2pNames = map[string]bool{
	"Send": true, "Recv": true, "RecvMsg": true, "SendRecv": true, "Probe": true,
}

// runFnNames are the package-level comm entry points that spawn one
// goroutine per rank from a protocol function literal.
var runFnNames = map[string]bool{
	"Run": true, "RunStats": true, "RunModel": true, "RunConfig": true,
}

// commKey canonicalizes the communicator value a call operates on. Three
// shapes are recognized: a plain identifier (base only), a field selection
// base.sel (core's ctx.c), and a no-argument accessor method base.sel()
// (slicing's ctx.Comm()), which is assumed pure. Anything else is "too
// complex" and the protocol cannot be certified.
type commKey struct {
	base types.Object
	sel  types.Object
}

// keyOf resolves e to a commKey. ok is false for unsupported shapes.
func keyOf(info *types.Info, e ast.Expr) (commKey, bool) {
	if e == nil {
		return commKey{}, false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := analysis.IdentObj(info, e); obj != nil {
			return commKey{base: obj}, true
		}
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok {
			return commKey{}, false
		}
		bobj := analysis.IdentObj(info, base)
		sobj := analysis.IdentObj(info, e.Sel)
		if bobj != nil && sobj != nil {
			return commKey{base: bobj, sel: sobj}, true
		}
	case *ast.CallExpr:
		if len(e.Args) != 0 {
			return commKey{}, false
		}
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok {
			return commKey{}, false
		}
		return keyOf(info, sel)
	}
	return commKey{}, false
}

// isP2P reports whether fn is one of the point-to-point methods on
// comm.Comm, or comm's typed send helper, returning its name.
func isP2P(fn *types.Func) (string, bool) {
	if analysis.IsCommSendHelper(fn) {
		return analysis.CommSendHelper, true
	}
	if fn == nil || !p2pNames[fn.Name()] {
		return "", false
	}
	if !analysis.IsMethodOn(fn, "comm", "Comm", fn.Name()) {
		return "", false
	}
	return fn.Name(), true
}

// isRunFn reports whether fn is comm.Run or one of its variants.
func isRunFn(fn *types.Func) bool {
	if fn == nil || !runFnNames[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return analysis.ObjPkgIs(fn, "comm")
}

// isPrimitiveDecl reports whether decl declares one of the point-to-point
// primitives themselves ((*Comm).Send and friends, in the real comm package
// or a testdata fake). Their bodies implement the semantics the analyzer
// models and are exempt from analysis.
func isPrimitiveDecl(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	if decl.Recv == nil || !p2pNames[decl.Name.Name] {
		return false
	}
	fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	_, ok = isP2P(fn)
	return ok
}

// scope is one protocol to certify: a statement tree interpreted once per
// (P, rank, scenario).
type scope struct {
	pass    *analysis.Pass
	body    *ast.BlockStmt
	pos     token.Pos // anchor for scope-level diagnostics
	comm    commKey   // the protocol's communicator value
	knownP  int64     // 0 when the size is not a compile-time constant
	tainted map[types.Object]bool
	splits  map[types.Object]bool
	commFns map[types.Object]bool // same-package transitively-communicating functions
	runLits map[*ast.FuncLit]bool // protocol literals analyzed as their own scopes
	param   types.Object          // comm parameter object for Run literals, else nil
}

func run(pass *analysis.Pass) error {
	commFns := communicatingFuncs(pass)
	for _, file := range pass.Files {
		var covered []ast.Node // regions whose p2p calls are accounted for
		analysis.FuncScopes(file, func(decl *ast.FuncDecl) {
			if isPrimitiveDecl(pass, decl) {
				covered = append(covered, decl)
				return
			}
			lits, byLit := runLiterals(pass, decl)
			for _, rl := range lits {
				covered = append(covered, rl.lit)
				analyzeScope(&scope{
					pass:    pass,
					body:    rl.lit.Body,
					pos:     rl.lit.Pos(),
					comm:    commKey{base: rl.param},
					knownP:  rl.knownP,
					tainted: commsym.TaintedObjects(pass, rl.lit),
					splits:  commsym.SplitObjects(pass, rl.lit),
					commFns: commFns,
					runLits: byLit,
					param:   rl.param,
				})
			}
			if first := firstP2PCall(pass, decl, byLit); first != nil {
				covered = append(covered, decl)
				sc := &scope{
					pass:    pass,
					body:    decl.Body,
					pos:     decl.Pos(),
					tainted: commsym.TaintedObjects(pass, decl),
					splits:  commsym.SplitObjects(pass, decl),
					commFns: commFns,
					runLits: byLit,
				}
				key, ok := keyOf(pass.Info, analysis.CommValueExpr(pass.Info, first))
				if !ok {
					pass.Reportf(first.Pos(), "%s", cannotMsg("communicator expression is too complex to track"))
					return
				}
				if sc.splits[key.base] {
					pass.Reportf(first.Pos(), "%s", cannotMsg("point-to-point on a Split sub-communicator (ranks are renumbered within the subgroup)"))
					return
				}
				sc.comm = key
				analyzeScope(sc)
			}
		})
		sweepUncovered(pass, file, covered)
	}
	return nil
}

// runLit is a protocol literal passed to comm.Run or a variant.
type runLit struct {
	lit    *ast.FuncLit
	param  types.Object // the literal's *comm.Comm parameter
	knownP int64        // constant size argument, or 0
}

// runLiterals collects the function literals decl passes (at any nesting
// depth) as the trailing argument of comm.Run/RunStats/RunModel/RunConfig,
// in source order.
func runLiterals(pass *analysis.Pass, decl *ast.FuncDecl) ([]runLit, map[*ast.FuncLit]bool) {
	var lits []runLit
	byLit := map[*ast.FuncLit]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 || !isRunFn(analysis.Callee(pass.Info, call)) {
			return true
		}
		lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
		if !ok {
			return true
		}
		rl := runLit{lit: lit}
		if v, ok := analysis.IntConstVal(pass.Info, call.Args[0]); ok && v > 0 {
			rl.knownP = v
		}
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.Info.Defs[name]
				if obj != nil && analysis.TypeIs(obj.Type(), "comm", "Comm") {
					rl.param = obj
				}
			}
		}
		if rl.param != nil {
			lits = append(lits, rl)
			byLit[lit] = true
		}
		return true
	})
	return lits, byLit
}

// firstP2PCall returns the first point-to-point call in decl that is not
// inside one of its Run protocol literals, or nil. Its communicator
// expression canonicalizes the declaration scope's communicator.
func firstP2PCall(pass *analysis.Pass, decl *ast.FuncDecl, runLits map[*ast.FuncLit]bool) *ast.CallExpr {
	var first *ast.CallExpr
	ast.Inspect(decl, func(n ast.Node) bool {
		if first != nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && runLits[lit] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := isP2P(analysis.Callee(pass.Info, call)); ok {
			first = call
			return false
		}
		return true
	})
	return first
}

// communicatingFuncs computes the set of same-package functions that
// transitively perform comm traffic (point-to-point or collective). A call
// to one from a protocol scope makes the protocol uncertifiable: the
// helper's sends and receives are part of the matching but are not
// interpreted inline.
func communicatingFuncs(pass *analysis.Pass) map[types.Object]bool {
	set := map[types.Object]bool{}
	type declFn struct {
		obj  types.Object
		decl *ast.FuncDecl
	}
	var decls []declFn
	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(decl *ast.FuncDecl) {
			obj := pass.Info.Defs[decl.Name]
			if obj == nil {
				return
			}
			decls = append(decls, declFn{obj, decl})
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.Callee(pass.Info, call)
				if _, ok := isP2P(fn); ok {
					set[obj] = true
				} else if commsym.CollectiveName(pass, call) != "" {
					set[obj] = true
				}
				return true
			})
		})
	}
	for i := 0; i < 8; i++ {
		changed := false
		for _, d := range decls {
			if set[d.obj] {
				continue
			}
			ast.Inspect(d.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := analysis.Callee(pass.Info, call); fn != nil && set[fn] {
					set[d.obj] = true
					changed = true
				}
				return true
			})
		}
		if !changed {
			break
		}
	}
	return set
}

// sweepUncovered reports point-to-point calls that no analyzed scope
// accounts for — in practice, package-level function literals. Silence
// would read as certification.
func sweepUncovered(pass *analysis.Pass, file *ast.File, covered []ast.Node) {
	inside := func(pos token.Pos) bool {
		for _, n := range covered {
			if n.Pos() <= pos && pos < n.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := isP2P(analysis.Callee(pass.Info, call)); ok && !inside(call.Pos()) {
			pass.Reportf(call.Pos(), "%s", cannotMsg("point-to-point call outside any analyzable function scope"))
		}
		return true
	})
}

// cannotMsg formats a "cannot certify" diagnostic.
func cannotMsg(reason string) string {
	return fmt.Sprintf("cannot certify point-to-point protocol: %s; vet the protocol by hand and annotate it with //lint:allow p2pmatch", reason)
}

// certErr aborts a scope's interpretation: the protocol is outside the
// provable shape (or definitely broken, for kindDiag).
type certErr struct {
	pos    token.Pos
	reason string
	// kindDiag marks reasons that are definite findings (a peer that is
	// always out of range) rather than certification failures; they are
	// reported verbatim without the cannot-certify wrapper.
	kindDiag bool
}

// inapplicable aborts one (P, rank) interpretation for size-polymorphic
// scopes: this P makes the protocol panic before communicating (peer out
// of range, division by zero), so the runtime would never reach a deadlock
// at this size either.
type inapplicable struct{}

// scenario is one resolution of a protocol's rank-uniform unknown
// conditions, keyed by condition position. decided lists positions in
// discovery order; choices gives each one's branch.
type scenario struct {
	choices map[token.Pos]bool
	decided []token.Pos
	// fixed counts the decisions inherited from the parent scenario; only
	// decisions beyond fixed spawn flipped variants.
	fixed int
}

// analyzeScope interprets and model-checks one protocol scope, reporting at
// most one deadlock diagnostic (smallest failing P, first witness) plus any
// lost-message findings.
func analyzeScope(sc *scope) {
	counts := rankCounts
	if sc.knownP > 0 {
		counts = []int64{sc.knownP}
	}
	scenarios := []*scenario{{choices: map[token.Pos]bool{}}}
	type lostSend struct {
		p    int64
		ev   event
		from int64
	}
	lost := map[token.Pos]lostSend{}
	var lostOrder []token.Pos
	for si := 0; si < len(scenarios); si++ {
		scen := scenarios[si]
		admissible := false
		for _, p := range counts {
			evs, ok, err := interpretRanks(sc, scen, p)
			if err != nil {
				if err.kindDiag {
					sc.pass.Reportf(err.pos, "%s", err.reason)
				} else {
					sc.pass.Reportf(err.pos, "%s", cannotMsg(err.reason))
				}
				return
			}
			if !ok {
				continue // size inapplicable: protocol panics before blocking
			}
			admissible = true
			res := explore(evs, p)
			if res.overflow {
				sc.pass.Reportf(sc.pos, "%s", cannotMsg(fmt.Sprintf("wildcard matching state space exceeds %d states at P=%d", maxMatchStates, p)))
				return
			}
			if res.dead != nil {
				sc.pass.Reportf(res.dead.pos, "%s", res.dead.msg)
				return
			}
			for _, l := range res.lost {
				if _, seen := lost[l.ev.pos]; !seen {
					lost[l.ev.pos] = lostSend{p: p, ev: l.ev, from: l.rank}
					lostOrder = append(lostOrder, l.ev.pos)
				}
			}
		}
		if !admissible && sc.knownP == 0 {
			sc.pass.Reportf(sc.pos, "%s", cannotMsg("no admissible communicator size in {1,2,3,4,5,7,8}: every size panics before communicating"))
			return
		}
		// Spawn one variant per decision first made in this scenario, with
		// that decision flipped and later ones left to be rediscovered.
		for k := scen.fixed; k < len(scen.decided); k++ {
			if len(scenarios) >= maxScenarios {
				sc.pass.Reportf(scen.decided[k], "%s", cannotMsg(fmt.Sprintf("protocol forks on more than %d resolutions of data-dependent conditions", maxScenarios)))
				return
			}
			v := &scenario{choices: map[token.Pos]bool{}, fixed: k + 1}
			for _, pos := range scen.decided[:k+1] {
				v.choices[pos] = scen.choices[pos]
				v.decided = append(v.decided, pos)
			}
			v.choices[scen.decided[k]] = !scen.choices[scen.decided[k]]
			scenarios = append(scenarios, v)
		}
	}
	for _, pos := range lostOrder {
		l := lost[pos]
		sc.pass.Reportf(pos, "lost message at P=%d: %s to rank %d tag %d by rank %d is never received (unmatched send)",
			l.p, l.ev.op, l.ev.peer, l.ev.tag, l.from)
	}
}

// interpretRanks runs the per-rank interpreter for every rank at size p
// under scenario scen. ok is false when the size is inapplicable.
func interpretRanks(sc *scope, scen *scenario, p int64) (evs [][]event, ok bool, err *certErr) {
	evs = make([][]event, p)
	for rank := int64(0); rank < p; rank++ {
		r := &runner{sc: sc, p: p, rank: rank, scen: scen, env: map[types.Object]value{}}
		trace, applicable, cerr := r.run()
		if cerr != nil {
			return nil, false, cerr
		}
		if !applicable {
			return nil, false, nil
		}
		evs[rank] = trace
	}
	// Wildcard receives combined with collectives leave the provable
	// fragment: non-barrier collectives (Bcast, Reduce, ...) are modeled as
	// full barriers, which is exact only when matching is deterministic.
	// A wildcard's candidate set depends on the modeled synchronization,
	// so the barrier over-approximation could hide real schedules.
	var barrier bool
	var wild *event
	for rank := range evs {
		for i := range evs[rank] {
			ev := &evs[rank][i]
			switch {
			case ev.kind == evBarrier:
				barrier = true
			case ev.kind == evRecv && (ev.peer == -1 || ev.tag == -1) && wild == nil:
				wild = ev
			}
		}
	}
	if barrier && wild != nil {
		return nil, false, &certErr{pos: wild.pos, reason: "wildcard receive mixed with collective synchronization (matching order is not provable)"}
	}
	return evs, true, nil
}

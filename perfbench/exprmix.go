package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"odinhpc/internal/serve"
	"odinhpc/internal/trace"
)

const exprMixDoc = "POST /v1/expr over arrays x, y, z; 7/8 small (n 2048/4096/6144/8192) and 1/8 large (n 262144) from 8 templates " +
	"covering + - * / unary minus, literals, sqrt sin cos exp abs neg square hypot; 1 in 32 requests a fresh random structure at n 2048"

const (
	exprLargeEvery = 8  // one request in this many is large
	exprFreshEvery = 32 // one request in this many is a fresh structure
	exprLargeN     = 1 << 18
	exprFreshN     = 2048
	// sumTol bounds |sum - reference| relative to the sum of |terms|: the
	// fused distributed sum and the serial one differ only in summation
	// order, whose rounding stays far below this for n <= 2^18.
	sumTol = 1e-9
)

var exprSmallN = []int{2048, 4096, 6144, 8192}

// enode is the benchmark's own expression tree: it renders the request
// source and evaluates the serial reference.
type enode struct {
	op   string // "var", "lit", "neg-", a binary operator, or a function name
	name string // variable
	val  float64
	a, b *enode
}

func v(name string) *enode              { return &enode{op: "var", name: name} }
func lit(x float64) *enode              { return &enode{op: "lit", val: x} }
func bin(op string, a, b *enode) *enode { return &enode{op: op, a: a, b: b} }
func fn(name string, a *enode) *enode   { return &enode{op: name, a: a} }
func minus(a *enode) *enode             { return &enode{op: "neg-", a: a} }
func hypot(a, b *enode) *enode          { return &enode{op: "hypot", a: a, b: b} }

// varSet returns the variables the tree reads.
func (e *enode) varSet() map[string]bool {
	set := map[string]bool{}
	e.walk(func(n *enode) {
		if n.op == "var" {
			set[n.name] = true
		}
	})
	return set
}

func (e *enode) walk(f func(*enode)) {
	f(e)
	if e.a != nil {
		e.a.walk(f)
	}
	if e.b != nil {
		e.b.walk(f)
	}
}

// render writes the tree as /v1/expr source, fully parenthesized.
func (e *enode) render() string {
	switch e.op {
	case "var":
		return e.name
	case "lit":
		return strconv.FormatFloat(e.val, 'g', -1, 64)
	case "neg-":
		return "-(" + e.a.render() + ")"
	case "+", "-", "*", "/":
		return "(" + e.a.render() + " " + e.op + " " + e.b.render() + ")"
	case "hypot":
		return "hypot(" + e.a.render() + ", " + e.b.render() + ")"
	}
	return e.op + "(" + e.a.render() + ")"
}

// eval evaluates the tree elementwise over n elements whose leaf values
// come from leaf(name).
func (e *enode) eval(n int, leaf func(string) []float64) []float64 {
	switch e.op {
	case "var":
		return leaf(e.name)
	case "lit":
		out := make([]float64, n)
		for i := range out {
			out[i] = e.val
		}
		return out
	}
	a := e.a.eval(n, leaf)
	out := make([]float64, n)
	if e.b != nil {
		b := e.b.eval(n, leaf)
		for i := range out {
			out[i] = apply2(e.op, a[i], b[i])
		}
		return out
	}
	for i := range out {
		out[i] = apply1(e.op, a[i])
	}
	return out
}

func apply2(op string, a, b float64) float64 {
	switch op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		return a / b
	}
	return math.Hypot(a, b)
}

func apply1(op string, a float64) float64 {
	switch op {
	case "sqrt":
		return math.Sqrt(a)
	case "sin":
		return math.Sin(a)
	case "cos":
		return math.Cos(a)
	case "exp":
		return math.Exp(a)
	case "abs":
		return math.Abs(a)
	case "square":
		return a * a
	}
	return -a // neg and unary minus
}

// leafValue is the value /v1/expr gives variable name at global index g.
func leafValue(name string, g int) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := float64(h.Sum64()%1000) / 1000
	return 0.5 + 0.4*math.Sin(seed*7+float64(g)*3)
}

// exprTemplates is the warm template pool. Together the templates use every
// operator and function /v1/expr accepts.
func exprTemplates() []*enode {
	x, y, z := v("x"), v("y"), v("z")
	return []*enode{
		fn("sqrt", bin("+", bin("*", x, x), bin("*", y, y))),
		bin("+", bin("*", x, y), fn("sin", x)),
		bin("+", fn("exp", minus(bin("*", x, x))), fn("cos", y)),
		bin("/", hypot(x, y), bin("+", lit(1.5), z)),
		bin("-", bin("*", fn("abs", bin("-", x, y)), fn("square", z)), lit(0.25)),
		bin("-", bin("+", fn("neg", x), bin("*", lit(2.5), y)), bin("/", z, lit(3))),
		bin("+", bin("*", fn("sin", x), fn("cos", y)), bin("/", fn("exp", z), bin("+", x, lit(1)))),
		bin("+", fn("square", bin("-", bin("+", x, y), z)), fn("sqrt", fn("abs", bin("-", z, x)))),
	}
}

// exprOp is the oracle's view of one request.
type exprOp struct {
	tree *enode
	src  string
	n    int
}

// exprMix is the serve-expr workload.
type exprMix struct {
	rng        *rand.Rand
	i          int
	largePhase int
	freshPhase int
	templates  []*enode
	refs       map[refSum]sumRef // references, kept across checks
	leaves     map[string][]float64
}

type refSum struct {
	src string
	n   int
}

type sumRef struct{ sum, abs float64 }

func newExprMix(seed int64) *exprMix {
	rng := rand.New(rand.NewSource(seed))
	m := &exprMix{rng: rng, templates: exprTemplates(), refs: map[refSum]sumRef{}, leaves: map[string][]float64{}}
	m.largePhase = rng.Intn(exprLargeEvery)
	m.freshPhase = rng.Intn(exprFreshEvery)
	if m.freshPhase%exprLargeEvery == m.largePhase {
		m.freshPhase = (m.freshPhase + 1) % exprFreshEvery // fresh requests stay small
	}
	return m
}

func (m *exprMix) name() string { return "serve-expr" }

// rssAt is about a third of a 20-second run's requests on a 2-core host.
func (m *exprMix) rssAt() int { return 16384 }

func (m *exprMix) next() *op {
	o := &op{index: m.i, path: "/v1/expr"}
	var eo exprOp
	switch {
	case m.i%exprFreshEvery == m.freshPhase:
		eo = exprOp{tree: m.fresh(), n: exprFreshN}
		o.cold = true
	case m.i%exprLargeEvery == m.largePhase:
		eo = exprOp{tree: m.templates[m.rng.Intn(len(m.templates))], n: exprLargeN}
		o.large = true
	default:
		eo = exprOp{tree: m.templates[m.rng.Intn(len(m.templates))], n: exprSmallN[m.rng.Intn(len(exprSmallN))]}
	}
	m.i++
	eo.src = eo.tree.render()
	body, err := json.Marshal(&serve.ExprRequest{Expr: eo.src, N: eo.n})
	if err != nil {
		panic(err) // a string and an int always marshal
	}
	o.body, o.spec = body, &eo
	return o
}

// fresh draws a random expression whose value is finite for every leaf
// value in (0, 1): divisors and sqrt arguments are kept positive and exp
// arguments bounded. A random literal factor makes its structure new to
// the plan cache, whose key includes literal values.
func (m *exprMix) fresh() *enode {
	for {
		if e := m.gen(3); len(e.varSet()) > 0 {
			return bin("*", lit(0.5+1.5*m.rng.Float64()), e)
		}
	}
}

func (m *exprMix) gen(depth int) *enode {
	r := m.rng
	if depth == 0 || r.Intn(5) == 0 {
		if r.Intn(4) == 0 {
			return lit(0.25 + 3.75*r.Float64())
		}
		return v([]string{"x", "y", "z"}[r.Intn(3)])
	}
	a := m.gen(depth - 1)
	switch r.Intn(12) {
	case 0:
		return bin("+", a, m.gen(depth-1))
	case 1:
		return bin("-", a, m.gen(depth-1))
	case 2:
		return bin("*", a, m.gen(depth-1))
	case 3:
		return bin("/", a, m.positive(m.gen(depth-1)))
	case 4:
		return minus(a)
	case 5:
		return fn("neg", a)
	case 6:
		return fn("sqrt", m.positive(a))
	case 7:
		return fn([]string{"sin", "cos"}[r.Intn(2)], a)
	case 8:
		return fn("exp", fn([]string{"sin", "cos"}[r.Intn(2)], a))
	case 9:
		return fn("abs", a)
	case 10:
		return fn("square", a)
	}
	return hypot(a, m.gen(depth-1))
}

// positive maps e to a value >= 1.
func (m *exprMix) positive(e *enode) *enode {
	if m.rng.Intn(2) == 0 {
		return bin("+", lit(1), fn("square", e))
	}
	return bin("+", lit(1+m.rng.Float64()), fn("abs", e))
}

func (m *exprMix) decode(o *op) (request, error) {
	var req serve.ExprRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// warm compiles every template and builds every (array, n) on every group.
func (m *exprMix) warm(s *serve.Scheduler) error {
	for _, n := range append([]int{exprLargeN}, exprSmallN...) {
		for _, t := range m.templates {
			req := &serve.ExprRequest{Expr: t.render(), N: n}
			if err := req.Validate(); err != nil {
				return err
			}
			if err := onEveryGroup(s, req.Job()); err != nil {
				return err
			}
		}
	}
	return nil
}

// reference evaluates the request serially over the same leaf values.
func (m *exprMix) reference(eo *exprOp) sumRef {
	k := refSum{eo.src, eo.n}
	if r, ok := m.refs[k]; ok {
		return r
	}
	vals := eo.tree.eval(eo.n, func(name string) []float64 {
		key := fmt.Sprintf("%s/%d", name, eo.n)
		if l, ok := m.leaves[key]; ok {
			return l
		}
		l := make([]float64, eo.n)
		for g := range l {
			l[g] = leafValue(name, g)
		}
		m.leaves[key] = l
		return l
	})
	var r sumRef
	for _, x := range vals {
		r.sum += x
		r.abs += math.Abs(x)
	}
	m.refs[k] = r
	return r
}

func (m *exprMix) verify(checks []check) []error {
	errs := make([]error, len(checks))
	for i, ch := range checks {
		eo := ch.op.spec.(*exprOp)
		errs[i] = checkExpr(&ch.rep, eo.n, m.reference(eo))
	}
	return errs
}

// checkExpr is the serve-expr oracle: the reported sum matches the serial
// sum within sumTol of the summed magnitudes.
func checkExpr(r *reply, n int, ref sumRef) error {
	if r.N != n {
		return fmt.Errorf("n %d, want %d", r.N, n)
	}
	if !(math.Abs(r.Sum-ref.sum) <= sumTol*ref.abs) {
		return fmt.Errorf("sum %.15g, serial reference %.15g", r.Sum, ref.sum)
	}
	return nil
}

// probe measures the fused sweep's bandwidth on large requests: one traced
// large request per template on the idle server, whose vm spans then belong
// to that request alone. Computed bytes are the leaf arrays read (8 bytes
// per element per distinct variable); a sum writes no output.
func (m *exprMix) probe(s *server, lm *layerMetrics) error {
	var bytes, ns int64
	for _, t := range m.templates {
		eo := &exprOp{tree: t, src: t.render(), n: exprLargeN}
		req := &serve.ExprRequest{Expr: eo.src, N: eo.n}
		if err := req.Validate(); err != nil {
			return err
		}
		sess := trace.Start(1 << 14)
		out, err := s.sched.Do("probe", req.Job())
		trace.Stop()
		if err != nil {
			return fmt.Errorf("vm probe: %w", err)
		}
		got := out.(*serve.ExprResponse)
		if err := checkExpr(&reply{Sum: got.Sum, N: got.N}, eo.n, m.reference(eo)); err != nil {
			return fmt.Errorf("vm probe: wrong answer: %w", err)
		}
		var sp spans
		sp.add(sess.Events(), sess.Dropped())
		bytes += sp.vmElems * 8 * int64(len(t.varSet()))
		ns += sp.vmNs
	}
	if ns > 0 {
		lm.set("fusion.vm_gbs", float64(bytes)/float64(ns))
	}
	return nil
}

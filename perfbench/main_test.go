package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/serve"
	"odinhpc/internal/solvers"
	"odinhpc/internal/tpetra"
)

func TestTailQuantileRule(t *testing.T) {
	for _, n := range []int{20, 21, 50, 99, 100, 500, 999, 1000, 1001, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		q := tailQuantile(n)
		beyond := n - int(quantile(xs, q))
		if beyond < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want >= %d", n, 100*q, beyond, minBeyond)
		}
		if q < 0.99 && beyond != minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond; a higher percentile would still leave %d", n, 100*q, beyond, minBeyond)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: tail is p%g, want p99", n, 100*q)
		}
	}
	if q := tailQuantile(12); q != 0.5 {
		t.Errorf("n=12: tail is p%g, want the median", 100*q)
	}
}

func streamBytes(m mix, n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o := m.next()
		buf.WriteString(o.path)
		buf.Write(o.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	mixes := map[string]func(int64) mix{
		"serve-solve": func(s int64) mix { return newSolveMix(s) },
		"serve-expr":  func(s int64) mix { return newExprMix(s) },
	}
	for name, mk := range mixes {
		a, b := streamBytes(mk(7), 400), streamBytes(mk(7), 400)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		if bytes.Equal(a, streamBytes(mk(8), 400)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
	if rhsValue(7, 12345) != rhsValue(7, 12345) || rhsValue(7, 12345) == rhsValue(8, 12345) {
		t.Error("batch-cg right-hand side is not a function of the seed")
	}
}

// The oracles check regenerated requests, so the replay must hand out
// exactly the requests the live stream sent, by index.
func TestReplayMatchesStream(t *testing.T) {
	mixes := map[string]func(int64) mix{
		"serve-solve": func(s int64) mix { return newSolveMix(s) },
		"serve-expr":  func(s int64) mix { return newExprMix(s) },
	}
	for name, mk := range mixes {
		live := mk(4)
		var sent []*op
		for i := 0; i < 300; i++ {
			sent = append(sent, live.next())
		}
		r := &replay{m: mk(4)}
		for _, i := range []int{0, 1, 2, 31, 32, 100, 299} {
			got := r.at(i)
			if got.index != i || !bytes.Equal(got.body, sent[i].body) || got.cold != sent[i].cold || got.large != sent[i].large {
				t.Errorf("%s: replayed request %d differs from the one sent", name, i)
			}
		}
	}
}

func TestMixShares(t *testing.T) {
	sm := newSolveMix(3)
	em := newExprMix(3)
	var cold, fresh, large int
	for i := 0; i < 3200; i++ {
		if sm.next().cold {
			cold++
		}
		o := em.next()
		if o.cold {
			fresh++
		}
		if o.large {
			large++
		}
	}
	if cold != 100 || fresh != 100 || large != 400 {
		t.Errorf("shares over 3200 requests: cold %d fresh %d large %d, want 100 100 400", cold, fresh, large)
	}
}

func TestTemplatesCoverTheExprLanguage(t *testing.T) {
	var all strings.Builder
	for _, tpl := range exprTemplates() {
		all.WriteString(tpl.render())
	}
	src := all.String()
	for _, tok := range []string{"+", " - ", "*", "/", "-(", "1.5", "sqrt(", "sin(", "cos(", "exp(", "abs(", "neg(", "square(", "hypot("} {
		if !strings.Contains(src, tok) {
			t.Errorf("no template uses %q", tok)
		}
	}
}

func TestFreshExpressionsAreFiniteAndValid(t *testing.T) {
	m := newExprMix(11)
	for i := 0; i < 200; i++ {
		e := m.fresh()
		req := &serve.ExprRequest{Expr: e.render(), N: exprFreshN}
		if err := req.Validate(); err != nil {
			t.Fatalf("fresh %q rejected: %v", e.render(), err)
		}
		r := m.reference(&exprOp{tree: e, src: e.render(), n: exprFreshN})
		if math.IsNaN(r.sum) || math.IsInf(r.abs, 0) {
			t.Fatalf("fresh %q is not finite", e.render())
		}
	}
}

// serveOnce sends one request of the mix to a real server and returns the
// decoded reply.
func serveOnce(t *testing.T, o *op) reply {
	t.Helper()
	s, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	sm := viaHTTP(s)(0, o)
	if sm.err != nil {
		t.Fatalf("request failed: %v", sm.err)
	}
	return sm.rep
}

func TestSolveOracleRejectsPerturbedAnswers(t *testing.T) {
	m := newSolveMix(5)
	var picked []*op // the first warm and the first cold request
	haveWarm, haveCold := false, false
	for !haveWarm || !haveCold {
		o := m.next()
		if o.cold && !haveCold || !o.cold && !haveWarm {
			haveCold, haveWarm = haveCold || o.cold, haveWarm || !o.cold
			picked = append(picked, o)
		}
	}
	for _, o := range picked {
		good := serveOnce(t, o)
		if errs := m.verify([]check{{o, good}}); errs[0] != nil {
			t.Fatalf("correct answer rejected: %v", errs[0])
		}
		for what, bad := range map[string]func(r *reply){
			"x_norm":    func(r *reply) { r.XNorm *= 1 + 10*xNormTol },
			"residual":  func(r *reply) { r.Residual = 10 * solveTol },
			"converged": func(r *reply) { r.Converged = false },
			"n":         func(r *reply) { r.N++ },
		} {
			r := good
			bad(&r)
			if errs := m.verify([]check{{o, r}}); errs[0] == nil {
				t.Errorf("cold=%v: perturbed %s accepted", o.cold, what)
			}
		}
	}
}

func TestExprOracleRejectsPerturbedAnswers(t *testing.T) {
	m := newExprMix(5)
	for i := 0; i < exprFreshEvery; i++ {
		o := m.next()
		if !o.cold && !o.large {
			continue
		}
		src := o.spec.(*exprOp).src
		good := serveOnce(t, o)
		if errs := m.verify([]check{{o, good}}); errs[0] != nil {
			t.Fatalf("correct answer to %s rejected: %v", src, errs[0])
		}
		bad := good
		bad.Sum += 1e-6 * math.Max(1, math.Abs(bad.Sum))
		if errs := m.verify([]check{{o, bad}}); errs[0] == nil {
			t.Errorf("perturbed sum for %s accepted", src)
		}
	}
}

func TestResidualOracleRejectsPerturbedSolution(t *testing.T) {
	err := comm.Run(2, func(c *comm.Comm) error {
		m := distmap.NewBlock(8*8*8, c.Size())
		s := &cgSession{a: galeri.Laplace3DDist(c, m, 8, 8, 8), b: tpetra.NewVector(c, m), x: tpetra.NewVector(c, m)}
		s.b.FillFromGlobal(func(g int) float64 { return rhsValue(1, g) })
		if r := s.solve(c, cgMaxIter); r.err != nil {
			t.Errorf("rank %d: correct solve rejected: %v", c.Rank(), r.err)
		}
		s.x.Data[0] += 1e-3
		if checkResidual(solvers.ResidualNorm(s.a, s.b, s.x)) == nil {
			t.Errorf("rank %d: perturbed solution accepted", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layer := declared(bench.EndToEnd), declared(bench.PerLayer)
	if len(e2e) != len(endToEndNames) || len(layer) != len(layerNames) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program reports %d+%d",
			len(e2e), len(layer), len(endToEndNames), len(layerNames))
	}
	for _, n := range endToEndNames {
		if _, ok := e2e[n]; !ok {
			t.Errorf("end-to-end metric %s not in BENCHMARK.json", n)
		}
	}
	for _, n := range layerNames {
		if layer[n] != layerUnits[n] {
			t.Errorf("layer metric %s: BENCHMARK.json unit %q, program unit %q", n, layer[n], layerUnits[n])
		}
	}
	for _, n := range append(append([]string{}, endToEndNames...), layerNames...) {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+", n)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "batch-cg", "-trace", "2"},
		{"-workload", "batch-cg", "-seconds", "0"},
		{"-bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

package tagcheck_test

import (
	"testing"

	"odinhpc/internal/analysis/analysistest"
	"odinhpc/internal/analysis/tagcheck"
	"odinhpc/internal/analysis/tagregistry"
)

func TestTagcheck(t *testing.T) {
	// Install the real reservation table, exactly as cmd/odinvet does, so
	// the testdata collisions exercise the registry-driven ranges.
	var rs []tagcheck.Range
	for _, r := range tagregistry.Reserved() {
		rs = append(rs, tagcheck.Range{Name: r.Name, Lo: r.Lo, Hi: r.Hi, Owner: r.Owner})
	}
	tagcheck.SetReserved(rs)
	analysistest.Run(t, "testdata", tagcheck.Analyzer, "a", "slicing", "comm")
}

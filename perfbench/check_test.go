package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"mamps/internal/modelio"
)

// flowAnswer computes a real answer to a small flow request and encodes
// it as the service does; edit may corrupt it first.
func flowAnswer(t *testing.T, r request, edit func(*modelio.FlowResponseJSON)) []byte {
	t.Helper()
	var resp modelio.FlowResponseJSON
	rp := newReplayer(true)
	canon, err := rp.replay(context.Background(), 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := modelio.DecodeJSON(bytes.NewReader(canon), &resp); err != nil {
		t.Fatal(err)
	}
	resp.Steps = []modelio.StepJSON{{Name: "Executing on platform", Automated: true, Micros: 42}}
	if edit != nil {
		edit(&resp)
	}
	var buf bytes.Buffer
	if err := modelio.EncodeJSON(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func smallFlowRequest() request {
	return flowParams{seq: "gradient", frames: 1, quality: 50, tiles: 3, interconnect: "fsl"}.request()
}

func TestCorrectAnswersPass(t *testing.T) {
	r := smallFlowRequest()
	c := newChecker()
	c.observe(r, 200, flowAnswer(t, r, nil))
	// A recomputed repeat differs in its step timings only.
	c.observe(r, 200, flowAnswer(t, r, func(resp *modelio.FlowResponseJSON) { resp.Steps[0].Micros = 7 }))
	c.checkReferences(context.Background(), 1)
	if c.failed != 0 {
		t.Fatalf("correct answers failed: %v", c.reasons)
	}
}

func TestCorruptedAnswersFail(t *testing.T) {
	r := smallFlowRequest()
	for _, tc := range []struct {
		name string
		run  func(c *checker)
	}{
		{"error status", func(c *checker) { c.observe(r, 500, []byte(`{"error": "boom"}`)) }},
		{"measured below the bound", func(c *checker) {
			c.observe(r, 200, flowAnswer(t, r, func(resp *modelio.FlowResponseJSON) {
				resp.Measured = modelio.NewThroughputJSON(resp.WorstCase.ItersPerCycle / 2)
			}))
		}},
		{"repeat differs from the first answer", func(c *checker) {
			c.observe(r, 200, flowAnswer(t, r, nil))
			c.observe(r, 200, flowAnswer(t, r, func(resp *modelio.FlowResponseJSON) { resp.Binding["VLD"]++ }))
		}},
		{"answer differs from the library", func(c *checker) {
			c.observe(r, 200, flowAnswer(t, r, func(resp *modelio.FlowResponseJSON) {
				resp.Expected = modelio.NewThroughputJSON(resp.Expected.ItersPerCycle * 2)
			}))
			c.checkReferences(context.Background(), 1)
		}},
	} {
		c := newChecker()
		tc.run(c)
		if c.failed != 1 {
			t.Errorf("%s: %d failures counted, want 1 (%v)", tc.name, c.failed, c.reasons)
		}
	}
}

func TestDeadlockReportsAreCountedApart(t *testing.T) {
	body := func(report string) []byte {
		resp := modelio.DSEResponseJSON{App: "g", Points: []modelio.DSEPointJSON{
			{Label: "2xnoc", Tiles: 2, Interconnect: "noc", Error: "mapping: deadlocks:\n" + report},
		}}
		var buf bytes.Buffer
		if err := modelio.EncodeJSON(&buf, resp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, reportsA, err := canonical("/v1/dse", body(`tile "tile1" blocked`))
	if err != nil {
		t.Fatal(err)
	}
	b, reportsB, err := canonical("/v1/dse", body(`tile "tile2" blocked`))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || reportsA == reportsB || !strings.Contains(string(a), "mapping: deadlocks:") {
		t.Fatalf("canonical forms %s and %s, reports %q and %q", a, b, reportsA, reportsB)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	r := &recorder{spans: []span{
		{name: "dse", id: 0, parent: -1, start: ms(0), end: ms(10)},
		{name: "statespace", id: 1, parent: 0, start: ms(1), end: ms(5)},
		{name: "statespace", id: 2, parent: 0, start: ms(3), end: ms(7)}, // overlaps span 1
	}}
	layers := r.selfTimes()
	if got := layers["dse"].self; got != ms(4) {
		t.Errorf("dse self time %v, want 4ms", got)
	}
	if got := layers["statespace"].self; got != ms(8) {
		t.Errorf("statespace self time %v, want 8ms", got)
	}
}

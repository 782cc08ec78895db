package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		value   float64 // ramp value at the chosen rank
		pct     float64
		comment string
	}{
		{5000, 4950, 99, "plenty of samples: the 99th percentile itself"},
		{1000, 990, 99, "exactly ten samples beyond p99"},
		{400, 390, 97.5, "p99 would leave four beyond: fall back to the 11th largest"},
		{15, 8, 50, "no tail is supportable: the median"},
	}
	for _, c := range cases {
		v, pct := tail(ramp(c.n), 99)
		if v != c.value || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v (%s)", c.n, v, pct, c.value, c.pct, c.comment)
		}
		if beyond := float64(c.n) - v; c.n >= 2*tailGuard && beyond < tailGuard {
			t.Errorf("n=%d: only %v samples beyond the reported tail", c.n, beyond)
		}
	}
	if v, pct := tail(nil, 99); v != 0 || pct != 0 {
		t.Errorf("empty tail = %v at p%v", v, pct)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize(ramp(10))
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", s.Q1, s.Median, s.Q3)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(s.IQRFrac-want) > 1e-12 {
		t.Errorf("IQRFrac = %v, want %v", s.IQRFrac, want)
	}
	if want := 9 / 5.5; math.Abs(s.RangeFrac-want) > 1e-12 {
		t.Errorf("RangeFrac = %v, want %v", s.RangeFrac, want)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	s = summarize([]float64{3, 1, 4, 1, 5})
	if s.Q1 != 1 || s.Median != 3 || s.Q3 != 4.5 {
		t.Fatalf("quartiles = %v %v %v", s.Q1, s.Median, s.Q3)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) spread { return spread{Median: m, IQRFrac: 0.02} }
	cases := []struct {
		a, b   spread
		better string
		want   string
	}{
		{tight(100), tight(105), "lower", verdictWithin},
		{tight(100), tight(115), "lower", verdictWorse},
		{tight(100), tight(80), "lower", verdictWithin}, // better is never worse
		{tight(100), tight(85), "higher", verdictWorse},
		{tight(100), spread{Median: 115, IQRFrac: 0.3}, "lower", verdictUnresolved},
	}
	for i, c := range cases {
		if got, _ := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("case %d: verdict = %q, want %q", i, got, c.want)
		}
	}
}

package main

import (
	"math"
	"strings"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/experiments"
)

// TestScaleWindows: a zero window flag keeps the default, any other value
// overrides it, and degenerate values are errors naming the flag (the
// command exits 2 on them instead of running at the defaults).
func TestScaleWindows(t *testing.T) {
	def, err := experiments.DefaultOptions()
	if err != nil {
		t.Fatal(err)
	}
	def = def.Quick()
	cases := []struct {
		measure, warmup float64
		windows         int
		want            string // flag named by the error, "" = valid
		check           func(experiments.Options) bool
	}{
		{0, 0, 0, "", func(o experiments.Options) bool {
			return o.Measure == def.Measure && o.Warmup == def.Warmup && o.ReplayWindows == def.ReplayWindows
		}},
		{1.5, 0.25, 3, "", func(o experiments.Options) bool {
			return o.Measure == 1500*dram.Microsecond && o.Warmup == 250*dram.Microsecond && o.ReplayWindows == 3
		}},
		{math.Inf(1), 0, 0, "-measure-ms", nil},
		{-1, 0, 0, "-measure-ms", nil},
		{math.NaN(), 0, 0, "-measure-ms", nil},
		{0, -1, 0, "-warmup-ms", nil},
		{0, math.Inf(1), 0, "-warmup-ms", nil},
		{0, 0, 1, "-replay-windows", nil},
		{0, 0, -2, "-replay-windows", nil},
	}
	for _, tc := range cases {
		got, err := scaleWindows(def, tc.measure, tc.warmup, tc.windows)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("(%v, %v, %d): unexpected error %v", tc.measure, tc.warmup, tc.windows, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("(%v, %v, %d): err = %v, want an error naming %s", tc.measure, tc.warmup, tc.windows, err, tc.want)
		case tc.check != nil && !tc.check(got):
			t.Errorf("(%v, %v, %d): options %+v", tc.measure, tc.warmup, tc.windows, got)
		}
	}
}

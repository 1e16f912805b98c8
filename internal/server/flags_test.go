package server

import (
	"encoding/json"
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestGridFlagsMatchWireBody pins the shared grid flags to the wire
// format. Each argument list, parsed by GridFlags, must canonicalize to
// the same JobSpec and fingerprint as the JSON body fisimctl submitted
// for it when it spelled the body out as a map; the bodies below are
// that encoding verbatim. The spec fisimctl now marshals must decode to
// the same canonical spec too.
func TestGridFlagsMatchWireBody(t *testing.T) {
	cases := []struct {
		name     string
		args     string
		priority string // fisimctl's -priority; sweep has no lane
		body     string
	}{
		{
			name:     "fisimctl range",
			args:     "-bench median -model C -sigma 0.010 -lo 690 -hi 730 -step 20 -trials 8",
			priority: LaneInteractive,
			body:     `{"benches":["median"],"freq_hi":730,"freq_lo":690,"freq_step":20,"mode":"auto","models":["C"],"priority":"interactive","seed":1,"sigmas":[0.01],"trials":8,"trials_max":0,"trials_min":0,"vdds":[0.7]}`,
		},
		{
			name: "sweep comma lists",
			args: "-bench median,kmeans -model B+,C -vdd 0.7,0.8 -sigma 0,0.010 -lo 680 -hi 950 -step 10",
			body: `{"benches":["median","kmeans"],"freq_hi":950,"freq_lo":680,"freq_step":10,"mode":"auto","models":["B+","C"],"priority":"batch","seed":1,"sigmas":[0,0.01],"trials":100,"trials_max":0,"trials_min":0,"vdds":[0.7,0.8]}`,
		},
		{
			name:     "fisimctl scan adaptive",
			args:     "-mode scan -trials-min 8 -trials-max 64 -seed 42 -lo 700 -hi 700 -step 1",
			priority: LaneInteractive,
			body:     `{"benches":["median"],"freq_hi":700,"freq_lo":700,"freq_step":1,"mode":"scan","models":["C"],"priority":"interactive","seed":42,"sigmas":[0],"trials":100,"trials_max":64,"trials_min":8,"vdds":[0.7]}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			var gf GridFlags
			gf.Register(fs)
			if err := fs.Parse(strings.Fields(tc.args)); err != nil {
				t.Fatal(err)
			}
			spec, err := gf.JobSpec()
			if err != nil {
				t.Fatal(err)
			}
			spec.Priority = tc.priority
			var want, sent JobSpec
			if err := json.Unmarshal([]byte(tc.body), &want); err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(blob, &sent); err != nil {
				t.Fatal(err)
			}
			canon := func(s JobSpec) JobSpec {
				c, err := s.Canonicalize()
				if err != nil {
					t.Fatalf("canonicalize %+v: %v", s, err)
				}
				return c
			}
			got, want, sent := canon(spec), canon(want), canon(sent)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("flags canonicalize to\n%+v\nthe old body to\n%+v", got, want)
			}
			if !reflect.DeepEqual(sent, want) {
				t.Errorf("the marshalled spec canonicalizes to\n%+v\nthe old body to\n%+v", sent, want)
			}
			if got.Fingerprint("sysfp") != want.Fingerprint("sysfp") {
				t.Errorf("fingerprints differ")
			}
		})
	}

	fs := flag.NewFlagSet("bad", flag.ContinueOnError)
	var gf GridFlags
	gf.Register(fs)
	if err := fs.Parse([]string{"-sigma", "0,x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := gf.JobSpec(); err == nil || !strings.HasPrefix(err.Error(), "-sigma: ") {
		t.Errorf("malformed -sigma list: err = %v, want one naming -sigma", err)
	}
}

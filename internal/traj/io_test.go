package traj

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geo"
)

// TestTrajTSVRoundTrip pins the lines WriteTSV prints, which l2rgen's
// trajectories.tsv is: the header, one T line per trip and one R line
// per record, each field read back by strconv within its print
// precision.
func TestTrajTSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	one := []*Trajectory{{ID: 7, Driver: 2, Depart: 12.5, Peak: true,
		Records: []GPS{{T: 0, P: geo.Pt(1, 2)}, {T: 1.25, P: geo.Pt(3.5, -4)}}}}
	if err := WriteTSV(&buf, one); err != nil {
		t.Fatal(err)
	}
	const want = "# learn2route trajectories: 1\n" +
		"T\t7\t2\t12.500\ttrue\t2\n" +
		"R\t0.000\t1.000\t2.000\n" +
		"R\t1.250\t3.500\t-4.000\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteTSV wrote\n%q\nwant\n%q", got, want)
	}

	ts := smallSim(tinyNet(), 25).Run()
	buf.Reset()
	if err := WriteTSV(&buf, ts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != "# learn2route trajectories: "+strconv.Itoa(len(ts)) {
		t.Fatalf("header %q", lines[0])
	}
	lines = lines[1:]
	near := func(field string, want float64) bool {
		v, err := strconv.ParseFloat(field, 64)
		return err == nil && math.Abs(v-want) <= 5e-4
	}
	for i, tr := range ts {
		if len(lines) < 1+len(tr.Records) {
			t.Fatalf("trip %d: %d lines left for %d records", i, len(lines), len(tr.Records))
		}
		f := strings.Split(lines[0], "\t")
		if len(f) != 6 || f[0] != "T" || f[1] != strconv.Itoa(tr.ID) || f[2] != strconv.Itoa(tr.Driver) ||
			!near(f[3], tr.Depart) || f[4] != strconv.FormatBool(tr.Peak) || f[5] != strconv.Itoa(len(tr.Records)) {
			t.Fatalf("trip %d: line %q", i, lines[0])
		}
		for j, r := range tr.Records {
			f := strings.Split(lines[1+j], "\t")
			if len(f) != 4 || f[0] != "R" || !near(f[1], r.T) || !near(f[2], r.P.X) || !near(f[3], r.P.Y) {
				t.Fatalf("trip %d record %d: line %q", i, j, lines[1+j])
			}
		}
		lines = lines[1+len(tr.Records):]
	}
	if len(lines) != 0 {
		t.Fatalf("%d lines after the last trip", len(lines))
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// TestWritesLibraryTSV: l2rgen's two data files are the library
// writers' bytes.
func TestWritesLibraryTSV(t *testing.T) {
	dir := t.TempDir()
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"l2rgen", "-out", dir, "-net", "tiny", "-trips", "40"}
	main()

	g, _, err := traj.PresetWorld("tiny", 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var net, trips bytes.Buffer
	if err := roadnet.WriteTSV(&net, g); err != nil {
		t.Fatal(err)
	}
	if err := traj.WriteTSV(&trips, traj.NewSimulator(g, traj.D2Like(2, 40)).Run()); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"network.tsv": net.Bytes(), "trajectories.tsv": trips.Bytes()} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the library writer's %d", name, len(got), len(want))
		}
	}
}

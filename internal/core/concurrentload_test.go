package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/worldgen"
)

// loadScale is the city the concurrent-Load tests save and load: ci,
// or bench under -race and -short.
func loadScale() string {
	if raceEnabled || testing.Short() {
		return worldgen.ScaleBench
	}
	return worldgen.ScaleCI
}

// sectionOffset is where part i of a v3 artifact's payload starts in
// the artifact: after the frame header, the road identity and the
// 8-byte length of every section up to and including its own.
func sectionOffset(parts [][]byte, i int) int {
	off := codec.FrameHeaderLen + len(parts[partRoadID])
	for j := partRoad; j < i; j++ {
		off += 8 + len(parts[j])
	}
	return off + 8
}

// TestConcurrentLoadFlippedByteIsCorrupt: Load decodes the payload
// while it verifies the checksum, and a checksum mismatch is
// codec.ErrCorrupt whatever the decoder made of the bytes. One byte
// flipped at the start, middle and end of each of the five sections is
// ErrCorrupt every time, and the flip at the start of each section is
// one the decoder refuses too (the same payload under a valid checksum
// fails to load), so the mismatch wins over a decode error.
func TestConcurrentLoadFlippedByteIsCorrupt(t *testing.T) {
	art := saveArtifact(t, cityRouter(t, loadScale()).Clone())
	parts := artifactParts(t, art)
	for _, sec := range []int{partRoad, partRegion, partPrefs, partMeta, partOrder} {
		n := len(parts[sec])
		for _, k := range []int{0, n / 2, n - 1} {
			flipped := bytes.Clone(art)
			flipped[sectionOffset(parts, sec)+k] ^= 0xff
			if got, err := Load(bytes.NewReader(flipped)); !errors.Is(err, codec.ErrCorrupt) || got != nil {
				t.Fatalf("section %d, byte %d of %d flipped: Load returned a router %v, error %v; want codec.ErrCorrupt", sec, k, n, got != nil, err)
			}
			if k != 0 {
				continue
			}
			reframed := append([][]byte(nil), parts...)
			reframed[sec] = bytes.Clone(parts[sec])
			reframed[sec][0] ^= 0xff
			if got, err := Load(bytes.NewReader(joinParts(t, reframed))); err == nil || got != nil || errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("section %d, first byte flipped under a valid checksum: Load returned a router %v, error %v; want a decode error", sec, got != nil, err)
			}
		}
	}
}

// TestConcurrentLoadDecodeErrorOnValidChecksum: a region section cut in
// half and framed with a valid checksum is the decoder's error
// (codec.ErrMalformed), not codec.ErrCorrupt.
func TestConcurrentLoadDecodeErrorOnValidChecksum(t *testing.T) {
	parts := artifactParts(t, saveArtifact(t, cityRouter(t, loadScale()).Clone()))
	parts[partRegion] = parts[partRegion][:len(parts[partRegion])/2]
	got, err := Load(bytes.NewReader(joinParts(t, parts)))
	if got != nil || !errors.Is(err, codec.ErrMalformed) || errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("truncated region section: Load returned a router %v, error %v; want codec.ErrMalformed", got != nil, err)
	}
}

// TestConcurrentLoadLeavesNoGoroutine: 200 failing Loads — a checksum
// mismatch, a region section the decoder refuses, an order that is not
// a permutation (refused before the hierarchy is asked for) and an
// order past the fill budget (refused by the hierarchy) — leave as
// many goroutines running as there were before.
func TestConcurrentLoadLeavesNoGoroutine(t *testing.T) {
	art := saveArtifact(t, builtRouter(t))
	parts := artifactParts(t, art)
	corrupt := bytes.Clone(art)
	corrupt[sectionOffset(parts, partRegion)] ^= 0xff
	truncated := append([][]byte(nil), parts...)
	truncated[partRegion] = parts[partRegion][:len(parts[partRegion])/2]
	notPermutation := append([][]byte(nil), parts...)
	notPermutation[partOrder] = []byte{1, 0}
	failing := [][]byte{corrupt, joinParts(t, truncated), joinParts(t, notPermutation), starArtifact(t, 300)}

	before := runtime.NumGoroutine()
	for i := range 200 {
		if got, err := Load(bytes.NewReader(failing[i%len(failing)])); err == nil || got != nil {
			t.Fatalf("failing artifact %d loaded", i%len(failing))
		}
	}
	// A goroutine counts until it has returned, a moment after Load
	// saw it finish.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before 200 failing Loads, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentLoadAnswersLikeSaved: a loaded router holds every
// MetricKeys metric and no other, customized once each — the three
// scalar metrics beside the region decode, the masked ones after it —
// and answers TestCIRouteDigest's ODs exactly as the router it was
// saved from.
func TestConcurrentLoadAnswersLikeSaved(t *testing.T) {
	r := cityRouter(t, loadScale()).Clone()
	got, err := Load(bytes.NewReader(saveArtifact(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	keys := got.MetricKeys()
	requireAllResident(t, "Load", got)
	if n, c := got.eng.ResidentMetrics(), got.eng.Customizations(); n != len(keys) || c != uint64(len(keys)) {
		t.Fatalf("the loaded router holds %d metrics after %d customizations; it routes on %d", n, c, len(keys))
	}
	if g, w := routeDigest(got, 20000), routeDigest(r, 20000); g != w {
		t.Fatalf("the loaded router's route digest %#x, the saved router's %#x", g, w)
	}
}

package wal

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures append throughput per fsync policy: the
// cost the serving write path pays, per batch of 16 trajectories,
// before each copy-on-write snapshot swap, reported as trajs/s. The
// gated number is wal.append_us in the benchmark's ledger.
func BenchmarkWALAppend(b *testing.B) {
	road, ts := testWorld(b, 1)
	const batchTrajs = 16
	batch := Batch{SkipMapMatching: true}
	for i := 0; i < batchTrajs; i++ {
		batch.Trajs = append(batch.Trajs, ts[i%len(ts)])
	}
	for _, policy := range []SyncPolicy{SyncNone, SyncAlways} {
		b.Run(fmt.Sprintf("sync=%s", policy), func(b *testing.B) {
			dir := b.TempDir()
			l, _, err := Open(dir, mustID(b, road), policy, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batchTrajs)*float64(b.N)/b.Elapsed().Seconds(), "trajs/s")
		})
	}
}

// BenchmarkWALRecovery measures a restart's replay scan: verify and
// decode a 256-record log end to end (the part of recovery the WAL
// owns; applying the batches is the router's usual ingest cost).
func BenchmarkWALRecovery(b *testing.B) {
	road, ts := testWorld(b, 2)
	dir := b.TempDir()
	l, _, err := Open(dir, mustID(b, road), SyncNone, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	const records = 256
	for i := 0; i < records; i++ {
		if _, err := l.Append(batchOf(ts[i%len(ts):i%len(ts)+1], i)); err != nil {
			b.Fatal(err)
		}
	}
	l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		l, ri, err := Open(dir, mustID(b, road), SyncNone, 0, func(uint64, Batch) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != records || ri.Records != records {
			b.Fatalf("replayed %d records, want %d", n, records)
		}
		l.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkBatchCodec times a record payload's encode and decode on the
// ci city's held-out trips in 2-trip batches, beside gob's round trip
// (log header v2's records) as the reference, and reports the payload's
// bytes per record.
func BenchmarkBatchCodec(b *testing.B) {
	batches := ciBatches(b)
	var payloads [][]byte
	size := 0
	for _, bt := range batches {
		p, err := appendBatch(nil, bt)
		if err != nil {
			b.Fatal(err)
		}
		payloads, size = append(payloads, p), size+len(p)
	}
	gobbed := make([][]byte, len(batches))
	for i, bt := range batches {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&bt); err != nil {
			b.Fatal(err)
		}
		gobbed[i] = buf.Bytes()
	}
	run := func(name string, bytesPerRecord int, op func(i int) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(i % len(batches)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bytesPerRecord)/float64(len(batches)), "B/record")
		})
	}
	gobSize := 0
	for _, g := range gobbed {
		gobSize += len(g)
	}
	var buf []byte
	run("Encode", size, func(i int) (err error) { buf, err = appendBatch(buf[:0], batches[i]); return err })
	run("Decode", size, func(i int) error { _, err := decodeBatch(payloads[i]); return err })
	run("GobEncode", gobSize, func(i int) error {
		var w bytes.Buffer
		return gob.NewEncoder(&w).Encode(&batches[i])
	})
	run("GobDecode", gobSize, func(i int) error {
		var out Batch
		return gob.NewDecoder(bytes.NewReader(gobbed[i])).Decode(&out)
	})
}

package main

import (
	"crypto/sha256"
	"path/filepath"
	"testing"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/resultdb"
	"waycache/internal/workload"
)

// A sweep result whose statistics differ from the golden table is a failed
// operation, and only that one.
func TestSweepCheckCountsCorruptedResult(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := cell{bench: workload.Names()[0], pol: access.DSelDMWayPred, ways: 4, lat: 1}
	res, err := core.Run(c.config(sweepInsts))
	if err != nil {
		t.Fatal(err)
	}
	bad := *res
	bad.DL1.Misses++
	b := &sweepBench{golden: golden}
	ph := &sweepPhase{cells: []cell{c, c}, results: []*core.Result{res, &bad}}
	if failed := b.check(ph); failed != 1 {
		t.Fatalf("check counted %d failures, want 1", failed)
	}
	if ph.results[0] == nil || ph.results[1] != nil {
		t.Errorf("check dropped the wrong results: %v", ph.results)
	}
}

// An exported payload that differs by one byte from the stored result is a
// failed operation.
func TestServiceCheckCountsCorruptedPayload(t *testing.T) {
	p := &svcPlan{
		Shapes: []svcShape{{Bench: workload.Names()[0], Ways: 4, Lat: 1, Insts: 2000, Half: 0}},
		Ops:    []svcOp{{Kind: opFresh, New: -1}, {Kind: opRepeat, New: -1}},
	}
	dir := filepath.Join(t.TempDir(), "pristine")
	if err := buildStore(dir, p); err != nil {
		t.Fatal(err)
	}
	db, err := resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*opRecord
	for i, op := range p.Ops {
		rec := &opRecord{idx: i, op: op, cfgs: p.Shapes[0].configs()}
		for _, c := range rec.cfgs {
			key, _ := c.Key()
			payload, found, err := db.GetEncoded(key)
			if err != nil || !found {
				t.Fatalf("stored %s: found %v, %v", key, found, err)
			}
			if op.Kind == opRepeat && len(rec.digests) == 2 {
				payload = append([]byte(nil), payload...)
				payload[len(payload)/2] ^= 1
			}
			rec.digests = append(rec.digests, sha256.Sum256(payload))
		}
		recs = append(recs, rec)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	b := &serviceBench{o: opts{seed: 1}, plan: p}
	if err := b.check(&svcPhase{recs: recs}, dir); err != nil {
		t.Fatal(err)
	}
	if failed, lat := tally(recs); failed != 1 || len(lat) != 1 {
		t.Errorf("tally = %d failed, %d timed; want 1 and 1", failed, len(lat))
	}
	if recs[0].err != nil {
		t.Errorf("the intact operation failed: %v", recs[0].err)
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"spire/internal/cep"
	"spire/internal/core"
	"spire/internal/federate"
	"spire/internal/metrics"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/stream"
)

// input is everything a run feeds the program, generated from the seed
// before any timing starts. The program only ever sees the wire bytes
// (flow, stock) or the recorded zone batches (zones).
//
// Generation also runs the reference pass in lockstep with the
// simulator: a substrate with KeepRawResult processes each
// epoch as it is generated, its raw verdicts are scored against the
// simulator's ground truth of that epoch (as internal/experiments scores
// them), and the digest of its output stream is what every measured pass
// must reproduce. For zones the reference is both zone substrates run
// serially, merged by the serial federate.Merger exactly as the
// coordinator drives it.
type input struct {
	spec      spec
	readers   []model.Reader
	locations []model.Location
	layout    cep.Layout

	// warmWire and timedWire are the raw reading stream (stream.Writer
	// encoding) of the warm-up and the timed epochs.
	warmWire, timedWire []byte

	// zoneReaders and zoneBatches are the zones workload's partition and
	// its recorded per-zone batches, one per epoch 1..warmup+timed.
	zoneReaders [][]model.Reader
	zoneBatches [][]*model.Batch

	timedReadings int64 // raw readings in the timed window
	timedEpochs   int   // epochs the timed window delivers to the program

	digest    [32]byte         // SHA-256 of the generated input
	refDigest [32]byte         // SHA-256 of the reference output stream
	acc       metrics.Accuracy // reference raw verdicts, timed window
}

// generate runs the simulator over every epoch of the spec, recording
// the program's input and running the reference pass alongside.
func generate(sp spec) (*input, error) {
	s, err := sim.New(sp.sim)
	if err != nil {
		return nil, err
	}
	first, last := s.ShelfRange()
	in := &input{
		spec:      sp,
		readers:   s.Readers(),
		locations: s.Locations(),
		layout: cep.Layout{
			ShelfFirst: first, ShelfLast: last,
			InboundFirst: s.EntryLocation(), InboundLast: first - 1,
			Packaging: s.PackagingLocation(),
		},
	}
	if sp.zones > 0 {
		err = in.generateZones(s)
	} else {
		err = in.generateSingle(s)
	}
	return in, err
}

// scorer scores raw verdicts against the live world, skipping objects at
// the warm-up entry door (as the paper's accuracy experiments do) and,
// for a zone, objects outside the zone's own locations.
type scorer struct {
	world *model.World
	entry model.LocationID
	own   map[model.LocationID]bool // nil: every location
}

func (sc scorer) score(acc *metrics.Accuracy, out *core.EpochOutput) {
	exclude := func(g model.Tag) bool {
		l := sc.world.LocationOf(g)
		return l == sc.entry || (sc.own != nil && !sc.own[l])
	}
	acc.Observe(out.RawResult, sc.world.LocationOf, sc.world.ParentOf, exclude)
}

func (in *input) generateSingle(s *sim.Simulator) error {
	sp := in.spec
	ref, err := newSubstrate(in.readers, in.locations, true)
	if err != nil {
		return err
	}
	sc := scorer{world: s.World(), entry: s.EntryLocation()}
	sh := newStreamHash()
	var buf bytes.Buffer
	w := stream.NewWriter(&buf)
	var b model.Batch
	end := sp.warmup + sp.timed
	for t := model.Epoch(1); t <= end; t++ {
		if err := s.StepBatch(&b); err != nil {
			return fmt.Errorf("epoch %d: %w", t, err)
		}
		if err := w.WriteBatch(&b); err != nil {
			return err
		}
		if t == sp.warmup {
			if err := w.Flush(); err != nil {
				return err
			}
			in.warmWire = bytes.Clone(buf.Bytes())
			buf.Reset()
		}
		if b.Total() == 0 {
			continue // the wire cannot carry an empty epoch, so no pass sees it
		}
		timed := t > sp.warmup
		if timed {
			in.timedReadings += int64(b.Total())
			in.timedEpochs++
		}
		out, err := ref.ProcessBatch(&b)
		if err != nil {
			return fmt.Errorf("reference epoch %d: %w", t, err)
		}
		if timed {
			sc.score(&in.acc, out)
		}
		if err := sh.add(out.Events...); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	in.timedWire = bytes.Clone(buf.Bytes())
	if err := sh.add(ref.Close(ref.LastEpoch() + 1)...); err != nil {
		return err
	}
	in.refDigest = sh.sum()
	h := sha256.New()
	h.Write(in.warmWire)
	h.Write(in.timedWire)
	h.Sum(in.digest[:0])
	return nil
}

func (in *input) generateZones(s *sim.Simulator) error {
	sp := in.spec
	var err error
	if in.zoneReaders, err = s.PartitionZones(sp.zones); err != nil {
		return err
	}
	streams, err := s.PartitionZonesBatch(sp.zones)
	if err != nil {
		return err
	}
	refs := make([]*core.Substrate, sp.zones)
	scs := make([]scorer, sp.zones)
	for z := range refs {
		if refs[z], err = newSubstrate(in.zoneReaders[z], in.locations, true); err != nil {
			return err
		}
		scs[z] = scorer{world: s.World(), entry: s.EntryLocation(), own: map[model.LocationID]bool{}}
		for _, r := range in.zoneReaders[z] {
			scs[z].own[r.Location] = true
		}
	}
	in.zoneBatches = make([][]*model.Batch, sp.zones)
	m := federate.NewMerger()
	sh := newStreamHash()
	h := sha256.New()
	w := stream.NewWriter(h)
	end := sp.warmup + sp.timed
	for t := model.Epoch(1); t <= end; t++ {
		timed := t > sp.warmup
		for z, zs := range streams {
			b, err := zs.NextBatch()
			if err != nil {
				return fmt.Errorf("zone %d epoch %d: %w", z, t, err)
			}
			if err := w.WriteBatch(b); err != nil {
				return err
			}
			in.zoneBatches[z] = append(in.zoneBatches[z], b.Clone())
			if timed {
				in.timedReadings += int64(b.Total())
			}
			out, err := refs[z].ProcessBatch(b)
			if err != nil {
				return fmt.Errorf("reference zone %d epoch %d: %w", z, t, err)
			}
			if timed {
				scs[z].score(&in.acc, out)
			}
			merged, err := m.Ingest(federate.ZoneID(z), out.Events)
			if err != nil {
				return err
			}
			if err := sh.add(merged...); err != nil {
				return err
			}
		}
		if err := sh.add(m.EndEpoch()...); err != nil {
			return err
		}
		if timed {
			in.timedEpochs++
		}
	}
	// The workers' Fin epoch: every zone's closing events, then the
	// merger's final barrier.
	for z, ref := range refs {
		merged, err := m.Ingest(federate.ZoneID(z), ref.Close(end+1))
		if err != nil {
			return err
		}
		if err := sh.add(merged...); err != nil {
			return err
		}
	}
	if err := sh.add(m.Close(end + 1)...); err != nil {
		return err
	}
	in.refDigest = sh.sum()
	if err := w.Flush(); err != nil {
		return err
	}
	h.Sum(in.digest[:0])
	return nil
}

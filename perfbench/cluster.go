package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/eventlog"
	"spire/internal/federate"
	"spire/internal/model"
	"spire/internal/stream"
	"spire/internal/telemetry"
)

// clusterTimeout bounds one cluster pass; a hung cluster fails the run
// instead of outliving the benchmark's own time limit.
const clusterTimeout = 120 * time.Second

// replaySource feeds one zone worker its recorded batches. The first
// timed batch waits for the gate, which opens once the coordinator has
// merged the last warm-up epoch, so the timed window starts with no
// timed work done and setup ends at a clean boundary. Each batch is
// copied into a scratch batch because the substrate consumes batches in
// place.
type replaySource struct {
	ctx     context.Context
	batches []*model.Batch
	warmup  model.Epoch
	gate    <-chan struct{}
	i       int
	b       model.Batch

	// returned is when the worker took its last timed batch. The time
	// from there to its next NextBatch call is the worker's epoch loop
	// (ProcessBatch plus submit): one epochMS sample per timed epoch.
	returned time.Time
	epochMS  []float64
}

func (s *replaySource) NextBatch() (*model.Batch, error) {
	if !s.returned.IsZero() {
		s.epochMS = append(s.epochMS, float64(time.Since(s.returned).Nanoseconds())/1e6)
		s.returned = time.Time{}
	}
	if s.i == len(s.batches) {
		return nil, io.EOF
	}
	src := s.batches[s.i]
	if src.Time == s.warmup+1 {
		select {
		case <-s.gate:
		case <-s.ctx.Done():
			return nil, s.ctx.Err()
		}
	}
	s.i++
	s.b.Time = src.Time
	s.b.Groups = append(s.b.Groups[:0], src.Groups...)
	s.b.Tags = append(s.b.Tags[:0], src.Tags...)
	if src.Time > s.warmup {
		s.returned = time.Now()
	}
	return &s.b, nil
}

// runCluster runs one pass of the zones workload: two federate.Workers,
// each driving its zone substrate with RunBatches, stream to one
// federate.Coordinator over loopback TCP; the coordinator's sink appends
// the merged stream to the eventlog.
func runCluster(in *input, kind passKind, logDir string, heapBase uint64) (*pass, error) {
	sp := in.spec
	p := &pass{kind: kind}
	runtime.GC()

	steal0, total0 := hostSteal()
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), clusterTimeout)
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	log, err := eventlog.Open(logDir, eventlog.Options{SyncEvery: 0})
	if err != nil {
		return nil, err
	}
	defer log.Close()

	nz := len(in.zoneBatches)
	subs := make([]*core.Substrate, nz)
	insts := make([]*core.Instruments, nz)
	workers := make([]*federate.Worker, nz)
	wins := make([]*federate.WorkerInstruments, nz)
	srcs := make([]*replaySource, nz)
	gate := make(chan struct{})
	var reg *telemetry.Registry
	if kind == traced {
		reg = telemetry.NewRegistry()
	}
	for z := range subs {
		if subs[z], err = newSubstrate(in.zoneReaders[z], in.locations, false); err != nil {
			return nil, err
		}
		if reg != nil {
			insts[z] = subs[z].Instrument(telemetry.NewRegistry())
		}
		workers[z], err = federate.NewWorker(federate.WorkerConfig{
			Zone: federate.ZoneID(z), Addr: ln.Addr().String(), Substrate: subs[z],
		})
		if err != nil {
			return nil, err
		}
		if reg != nil {
			wins[z] = workers[z].Instrument(reg)
		}
		srcs[z] = &replaySource{ctx: ctx, batches: in.zoneBatches[z], warmup: sp.warmup, gate: gate}
	}

	var ci *federate.CoordinatorInstruments
	snap := func() layerSnap {
		var s layerSnap
		for _, ins := range insts {
			s.add(ins)
		}
		s.addFederate(ci, wins)
		s.logBytes = dirBytes(log.Dir())
		return s
	}
	var before, after layerSnap
	var rt0, rt1 runtimeSnap
	var steal1, total1 uint64
	var t0, tEnd time.Time
	var appendBusy time.Duration
	final := sp.warmup + sp.timed
	sink := func(epoch model.Epoch, events []event.Event) error {
		ta := time.Now()
		if err := log.Append(events...); err != nil {
			return err
		}
		now := time.Now()
		switch {
		case epoch == sp.warmup:
			t0 = now
			if kind == traced {
				before, rt0 = snap(), readRuntime()
			}
			close(gate)
		case epoch > sp.warmup && epoch <= final:
			appendBusy += now.Sub(ta)
			p.epochs++
			p.eventBytes += event.StreamSize(events)
			if epoch == final {
				tEnd = now
				steal1, total1 = hostSteal()
				if kind == traced {
					after, rt1 = snap(), readRuntime()
				}
			}
		}
		return nil
	}
	coord, err := federate.NewCoordinator(federate.CoordinatorConfig{Zones: nz, Sink: sink})
	if err != nil {
		return nil, err
	}
	if reg != nil {
		ci = coord.Instrument(reg)
	}

	errs := make([]error, nz+1)
	var wg sync.WaitGroup
	wg.Add(nz + 1)
	go func() {
		defer wg.Done()
		if errs[nz] = coord.Serve(ctx, ln); errs[nz] != nil {
			cancel() // release workers blocked on a dead coordinator
		}
	}()
	for z := range workers {
		go func(z int) {
			defer wg.Done()
			if errs[z] = workers[z].RunBatches(ctx, srcs[z]); errs[z] != nil {
				cancel()
			}
		}(z)
	}
	wg.Wait()
	for z, err := range errs {
		if err != nil {
			if z == nz {
				return nil, fmt.Errorf("coordinator: %w", err)
			}
			return nil, fmt.Errorf("zone %d worker: %w", z, err)
		}
	}
	if p.epochs != in.timedEpochs {
		return nil, fmt.Errorf("merged %d timed epochs, want %d", p.epochs, in.timedEpochs)
	}
	p.setup = t0.Sub(start)
	p.timed = tEnd.Sub(t0)
	p.stealFrac = ratio(float64(steal1-steal0), float64(total1-total0))
	p.readings = in.timedReadings
	p.rawBytes = in.timedReadings * stream.ReadingSize
	for _, s := range srcs {
		p.epochMS = append(p.epochMS, s.epochMS...)
	}

	nodes := 0
	for _, s := range subs {
		nodes += s.Graph().Len()
	}
	if kind == traced {
		var lay layers
		lay.fill(before, after)
		lay.runtime(rt0, rt1, p.readings)
		lay.append = appendBusy
		for _, ms := range p.epochMS {
			lay.process += time.Duration(ms * 1e6)
		}
		for _, ins := range insts {
			lay.graphNodes += float64(ins.Graph.Nodes.Value())
			lay.graphEdges += float64(ins.Graph.Edges.Value())
			lay.graphFree += float64(ins.Graph.FreeEdges.Value())
		}
		p.layers = lay
	}
	p.heapPerTag = heapPerTag(heapBase, nodes)
	if err := log.Sync(); err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	runtime.KeepAlive(subs)
	runtime.KeepAlive(coord)
	return p, nil
}

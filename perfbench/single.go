package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"spire/internal/cep"
	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/eventlog"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/query"
	"spire/internal/stream"
	"spire/internal/telemetry"
)

// passKind selects how a pass is run.
type passKind int

const (
	// untraced is the measured configuration: program defaults, nothing
	// attached but the detectors the workload needs.
	untraced passKind = iota
	// traced attaches the program's own telemetry and times each layer
	// call from outside.
	traced
)

func (k passKind) String() string {
	if k == traced {
		return "traced"
	}
	return "untraced"
}

// pass is the outcome of one run of the program over the workload input.
type pass struct {
	kind     passKind
	setup    time.Duration
	timed    time.Duration
	epochMS  []float64 // one sample per timed epoch
	readings int64     // raw readings in the timed window
	epochs   int       // timed epochs completed

	rawBytes, eventBytes int64 // timed window, for compression_ratio
	heapPerTag           float64
	stealFrac            float64 // share of host CPU time stolen during setup and timed window
	digest               [32]byte
	layers               layers // traced passes only
}

// cepShim times the CEP engine's share of each epoch. The substrate's
// watcher calls BeginEpoch, OnEvent for every event, then EndEpoch
// back to back, so the span from BeginEpoch to the end of EndEpoch is
// the whole dispatch.
type cepShim struct {
	e     *cep.Engine
	start time.Time
	busy  time.Duration
}

func (s *cepShim) BeginEpoch(now model.Epoch) {
	s.start = time.Now()
	s.e.BeginEpoch(now)
}

func (s *cepShim) OnEvent(e event.Event) { s.e.OnEvent(e) }

func (s *cepShim) EndEpoch(now model.Epoch) {
	s.e.EndEpoch(now)
	s.busy += time.Since(s.start)
}

// newSubstrate builds a substrate with the program's defaults at
// compression level 2.
func newSubstrate(readers []model.Reader, locs []model.Location, keepRaw bool) (*core.Substrate, error) {
	return core.New(core.Config{
		Readers:       readers,
		Locations:     locs,
		Inference:     inference.DefaultConfig(),
		Compression:   core.Level2,
		KeepRawResult: keepRaw,
	})
}

// runSingle runs one pass of a single-substrate workload: every epoch
// goes stream.BatchReader.ReadBatch → core.Substrate.ProcessBatch →
// eventlog.Log.Append, the warm-up epochs inside setup, the timed epochs
// inside the timed window.
func runSingle(in *input, kind passKind, logDir string, heapBase uint64) (*pass, error) {
	sp := in.spec
	p := &pass{kind: kind, epochMS: make([]float64, 0, in.timedEpochs)}
	runtime.GC() // start every pass from the same collector state

	steal0, total0 := hostSteal()
	start := time.Now()
	sub, err := newSubstrate(in.readers, in.locations, false)
	if err != nil {
		return nil, err
	}
	var ins *core.Instruments
	if kind == traced {
		ins = sub.Instrument(telemetry.NewRegistry())
	}
	var engine *cep.Engine
	var shim *cepShim
	if sp.cep {
		engine = cep.NewEngine(cep.Config{})
		for _, pat := range []string{
			cep.TheftPattern(cepTheftWindow),
			cep.MisroutePattern(in.layout, cepMisrouteWindow),
		} {
			if _, err := engine.Subscribe(pat); err != nil {
				return nil, err
			}
		}
		w := query.NewWatcher()
		if kind == untraced {
			engine.Attach(w)
		} else {
			shim = &cepShim{e: engine}
			w.SubscribeEpochs(shim)
		}
		sub.Watch(w)
	}
	log, err := eventlog.Open(logDir, eventlog.Options{SyncEvery: 0})
	if err != nil {
		return nil, err
	}
	defer log.Close()

	var b model.Batch
	last := model.EpochNone
	warm := stream.NewBatchReader(bytes.NewReader(in.warmWire))
	for {
		if err := warm.ReadBatch(&b); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("warm-up decode: %w", err)
		}
		last = b.Time
		out, err := sub.ProcessBatch(&b)
		if err != nil {
			return nil, fmt.Errorf("warm-up epoch %d: %w", last, err)
		}
		if err := log.Append(out.Events...); err != nil {
			return nil, err
		}
	}
	p.setup = time.Since(start)

	// The timed window. Untraced passes read the clock twice per epoch;
	// traced passes split the epoch into its three layer calls.
	var lay layers
	var before layerSnap
	if ins != nil {
		before = snapSingle(ins, engine, shim, log)
	}
	stats0 := sub.Stats()
	alloc0 := readRuntime()
	timedR := stream.NewBatchReader(bytes.NewReader(in.timedWire))
	t0 := time.Now()
	for {
		ta := time.Now()
		err := timedR.ReadBatch(&b)
		if err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		tb := ta
		if ins != nil {
			tb = time.Now()
		}
		last = b.Time
		out, err := sub.ProcessBatch(&b)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", last, err)
		}
		tc := tb
		if ins != nil {
			tc = time.Now()
		}
		if err := log.Append(out.Events...); err != nil {
			return nil, fmt.Errorf("eventlog append at epoch %d: %w", last, err)
		}
		td := time.Now()
		if ins != nil {
			lay.decode += tb.Sub(ta)
			lay.process += tc.Sub(tb)
			lay.append += td.Sub(tc)
		}
		p.epochMS = append(p.epochMS, float64(td.Sub(ta).Nanoseconds())/1e6)
		p.epochs++
	}
	p.timed = time.Since(t0)
	steal1, total1 := hostSteal()
	p.stealFrac = ratio(float64(steal1-steal0), float64(total1-total0))
	alloc1 := readRuntime()
	stats1 := sub.Stats()
	p.readings = stats1.Readings - stats0.Readings
	p.rawBytes = stats1.RawBytes - stats0.RawBytes
	p.eventBytes = stats1.EventBytes - stats0.EventBytes
	if ins != nil {
		lay.fill(before, snapSingle(ins, engine, shim, log))
		lay.runtime(alloc0, alloc1, p.readings)
		lay.graphNodes = float64(ins.Graph.Nodes.Value())
		lay.graphEdges = float64(ins.Graph.Edges.Value())
		lay.graphFree = float64(ins.Graph.FreeEdges.Value())
		p.layers = lay
	}
	if p.epochs != in.timedEpochs {
		return nil, fmt.Errorf("timed window delivered %d epochs, want %d", p.epochs, in.timedEpochs)
	}

	p.heapPerTag = heapPerTag(heapBase, sub.Graph().Len())
	if err := log.Append(sub.Close(last + 1)...); err != nil {
		return nil, err
	}
	if err := log.Sync(); err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	runtime.KeepAlive(sub)
	return p, nil
}

// Detector windows as the CEP experiment sets them.
const (
	cepTheftWindow    = 120
	cepMisrouteWindow = 30
)

package main

import (
	"crypto/sha256"
	"fmt"
	"hash"

	"spire/internal/compress"
	"spire/internal/event"
	"spire/internal/eventlog"
	"spire/internal/model"
)

// streamHash is the SHA-256 of an event stream's wire encoding.
type streamHash struct {
	h   hash.Hash
	buf []byte
}

func newStreamHash() *streamHash { return &streamHash{h: sha256.New()} }

func (s *streamHash) add(events ...event.Event) error {
	for _, e := range events {
		b, err := event.Append(s.buf[:0], e)
		if err != nil {
			return err
		}
		s.buf = b
		s.h.Write(b)
	}
	return nil
}

func (s *streamHash) sum() (d [32]byte) {
	s.h.Sum(d[:0])
	return d
}

// emitTime is the epoch an event was emitted in: an End carries its
// interval end, everything else its start.
func emitTime(e event.Event) model.Epoch {
	if e.Kind == event.EndLocation || e.Kind == event.EndContainment {
		return e.Ve
	}
	return e.Vs
}

// verifyLog replays the eventlog in dir and returns the digest of the
// stream it holds. With wellFormed set it also decompresses the level-2
// stream epoch by epoch with compress.Decompressor and requires the
// level-1 result, every pair closed, to pass event.CheckWellFormed.
func verifyLog(dir string, wellFormed bool) ([32]byte, error) {
	sh := newStreamHash()
	dec := compress.NewDecompressor()
	var level1, batch []event.Event
	batchTime := model.EpochNone
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		out, err := dec.Step(batch)
		if err != nil {
			return fmt.Errorf("decompress epoch %d: %w", batchTime, err)
		}
		level1 = append(level1, out...)
		batch = batch[:0]
		return nil
	}
	err := eventlog.Replay(dir, func(e event.Event) error {
		if err := sh.add(e); err != nil {
			return err
		}
		if !wellFormed {
			return nil
		}
		if t := emitTime(e); t != batchTime {
			if err := flush(); err != nil {
				return err
			}
			batchTime = t
		}
		batch = append(batch, e)
		return nil
	})
	if err != nil {
		return [32]byte{}, fmt.Errorf("replay eventlog: %w", err)
	}
	if wellFormed {
		if err := flush(); err != nil {
			return [32]byte{}, err
		}
		level1 = append(level1, dec.Close(batchTime)...)
		if err := event.CheckWellFormed(level1, true); err != nil {
			return [32]byte{}, fmt.Errorf("decompressed level-2 stream is not well-formed: %w", err)
		}
	}
	return sh.sum(), nil
}

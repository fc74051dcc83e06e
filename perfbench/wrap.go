package main

import (
	"time"

	"snoopy/internal/core"
	"snoopy/internal/store"
)

// partitionClient is what a dialed snoopy.SubORAM handle provides beyond
// the plain interface. Core takes its one-round-trip-per-epoch path only
// through BatchAccessN, and the root journal gives a delivery tag only to a
// client that is both batched and tagged, so a wrapper must keep both.
type partitionClient interface {
	core.BatchedSubORAMClient
	core.TaggedClient
}

// timedSubORAM records an "rpc.<method>" span around every batch call to
// one partition. Every other method reaches the dialed handle unchanged.
type timedSubORAM struct {
	partitionClient
	part int
	log  *spanLog
}

func (t *timedSubORAM) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	t0 := time.Now()
	out, err := t.partitionClient.BatchAccess(reqs)
	t.log.addRPC("rpc.BatchAccess", t.part, t0, time.Now())
	return out, err
}

func (t *timedSubORAM) BatchAccessN(reqs []*store.Requests) ([]*store.Requests, error) {
	t0 := time.Now()
	out, err := t.partitionClient.BatchAccessN(reqs)
	t.log.addRPC("rpc.BatchAccessN", t.part, t0, time.Now())
	return out, err
}

// Close closes the wrapped connection.
func (t *timedSubORAM) Close() error {
	if c, ok := t.partitionClient.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

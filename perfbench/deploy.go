package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"snoopy"
)

// suboramProgram is the enclave identity snoopy-server attests to.
const suboramProgram = "snoopy-suboram-v1"

// deployment is one freshly set-up store under test.
type deployment struct {
	st      *snoopy.Store
	servers []*server
	subs    []snoopy.SubORAM
	dataDir []string // per-partition -data directories (remote)
	journal string   // root JournalDir (remote)
	// heapBytes is the Go heap the loaded store retains (in-process).
	heapBytes int64
	tel       *telemetryTaps // nil when untraced
}

// config is the store configuration of b's workload: only the knobs the
// workload sets, everything else at its default.
func (b *bench) config(journal string, tel *snoopy.Telemetry) snoopy.Config {
	w := b.w
	return snoopy.Config{
		BlockSize:     w.BlockSize,
		LoadBalancers: w.LoadBalancers,
		SubORAMs:      w.SubORAMs,
		Epoch:         w.Epoch,
		JournalDir:    journal,
		Telemetry:     tel,
	}
}

// deploy sets up a fresh store loaded with the initial blocks and returns
// it with its set-up time: Open + LoadSlices, plus server start, attestation
// and dial for a remote workload. With traced set, the store, its dialed
// partitions and its servers export telemetry.
func (b *bench) deploy(traced bool) (*deployment, time.Duration, error) {
	b.deploys++
	d := &deployment{}
	var reg *snoopy.Telemetry
	if traced {
		reg = snoopy.NewTelemetry()
		reg.SetSpanRing(1 << 16)
	}
	if !b.w.Remote {
		runtime.GC()
		before := memStats().HeapAlloc
		t0 := time.Now()
		st, err := snoopy.Open(b.config("", reg))
		if err != nil {
			return nil, 0, fmt.Errorf("open: %w", err)
		}
		d.st = st
		if err := st.LoadSlices(b.ids, b.data); err != nil {
			st.Close()
			return nil, 0, fmt.Errorf("load: %w", err)
		}
		setup := time.Since(t0)
		runtime.GC()
		d.heapBytes = int64(memStats().HeapAlloc) - int64(before)
		if traced {
			d.tel = newLocalTaps(reg)
		}
		return d, setup, nil
	}

	dir := filepath.Join(b.work, fmt.Sprintf("deploy-%d", b.deploys))
	d.journal = filepath.Join(dir, "journal")
	for s := 0; s < b.w.SubORAMs; s++ {
		d.dataDir = append(d.dataDir, filepath.Join(dir, fmt.Sprintf("part-%d", s)))
	}
	t0 := time.Now()
	if err := d.startServers(b, traced); err != nil {
		d.close(b)
		return nil, 0, err
	}
	if err := d.open(b, reg, true); err != nil {
		d.close(b)
		return nil, 0, err
	}
	setup := time.Since(t0)
	if traced {
		d.tel = newRemoteTaps(reg, d)
	}
	return d, setup, nil
}

// startServers launches one partition server per data directory
// concurrently.
func (d *deployment) startServers(b *bench, telemetry bool) error {
	d.servers = make([]*server, len(d.dataDir))
	errs := make([]error, len(d.dataDir))
	var wg sync.WaitGroup
	for s := range d.dataDir {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			d.servers[s], errs[s] = startServer(b.serverBin, d.dataDir[s], b.platformHex, b.w.BlockSize, telemetry)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("partition %d: %w", s, err)
		}
	}
	return nil
}

// open dials every server over an attested channel and opens a journaled
// root over them; load initializes the partitions with the initial blocks.
func (d *deployment) open(b *bench, reg *snoopy.Telemetry, load bool) error {
	d.subs = make([]snoopy.SubORAM, len(d.servers))
	for s, srv := range d.servers {
		sub, err := snoopy.DialSubORAMConfig(srv.addr, b.platform, snoopy.Measure(suboramProgram),
			snoopy.DialConfig{Epoch: b.w.Epoch, Telemetry: reg})
		if err != nil {
			return fmt.Errorf("dial partition %d: %w", s, err)
		}
		d.subs[s] = sub
		if reg != nil {
			pc, ok := sub.(partitionClient)
			if !ok {
				return fmt.Errorf("partition %d: dialed handle %T is not batched and tagged", s, sub)
			}
			d.subs[s] = &timedSubORAM{partitionClient: pc, part: s, log: b.spans}
		}
	}
	st, err := snoopy.OpenWithSubORAMs(b.config(d.journal, reg), d.subs)
	if err != nil {
		return fmt.Errorf("open root: %w", err)
	}
	d.st = st
	if load {
		if err := st.LoadSlices(b.ids, b.data); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

// closeRoot closes the store and its partition connections.
func (d *deployment) closeRoot() {
	if d.st != nil {
		d.st.Close()
		d.st = nil
	}
	for _, sub := range d.subs {
		if c, ok := sub.(interface{ Close() error }); ok {
			_ = c.Close()
		}
	}
	d.subs = nil
}

// close tears the deployment down: root, connections, server processes
// (recording their peak RSS) and on-disk state.
func (d *deployment) close(b *bench) {
	if d.tel != nil {
		d.tel.stop()
	}
	d.closeRoot()
	for s, srv := range d.servers {
		if srv != nil {
			b.noteServerHWM(s, srv.kill())
		}
	}
	if len(d.dataDir) > 0 {
		_ = os.RemoveAll(filepath.Dir(d.dataDir[0]))
	}
	runtime.GC()
}

// diskBytes sums the sizes of the files under the partitions' -data
// directories and the root's JournalDir.
func (d *deployment) diskBytes() int64 {
	var total int64
	for _, dir := range append(append([]string(nil), d.dataDir...), d.journal) {
		total += dirBytes(dir)
	}
	return total
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total
}

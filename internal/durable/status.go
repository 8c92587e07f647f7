package durable

import (
	"io"
	"strconv"
	"time"

	"adaptrm/internal/metrics"
)

// DeviceStatus is one device's WAL position.
type DeviceStatus struct {
	// Device is the device id.
	Device int `json:"device"`
	// LastSeq is the last appended event sequence (0: nothing yet).
	LastSeq uint64 `json:"last_seq"`
	// SnapshotSeq is the newest on-disk snapshot's sequence.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Segments counts the device's segment files on disk.
	Segments int `json:"segments"`
	// Segment is the current segment file (empty before the first
	// append after start).
	Segment string `json:"segment,omitempty"`
	// SegmentBytes is the current segment's size.
	SegmentBytes int64 `json:"segment_bytes"`
	// LastFsync is the wall-clock time of the device's last fsync
	// (zero: none yet).
	LastFsync time.Time `json:"last_fsync,omitzero"`
}

// Status is a point-in-time view of the writer: recovery figures from
// the open, cumulative persistence counters, and per-device positions.
// It backs the /metrics WAL families, the flightlog dump and the
// rmserve recovery report.
type Status struct {
	// Dir is the data directory.
	Dir string `json:"dir"`
	// Policy is the fsync policy in effect.
	Policy string `json:"policy"`
	// Recovered reports whether this process started from prior state.
	Recovered bool `json:"recovered"`
	// RecoveredEvents counts the log-tail events handed to replay.
	RecoveredEvents int `json:"recovered_events"`
	// RecoveredSnapshots counts the devices recovered from a snapshot.
	RecoveredSnapshots int `json:"recovered_snapshots"`
	// TruncatedBytes counts torn bytes physically removed at open.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Appended counts events persisted since start.
	Appended int64 `json:"appended"`
	// Fsyncs counts fsync calls since start.
	Fsyncs int64 `json:"fsyncs"`
	// Snapshots counts snapshots written since start.
	Snapshots int64 `json:"snapshots"`
	// Rescues counts lag rescues (retention window overruns absorbed by
	// an extra snapshot) since start.
	Rescues int64 `json:"rescues"`
	// Err is the first persistence error, if any.
	Err string `json:"err,omitempty"`
	// FsyncLatency is the fsync latency distribution (nanoseconds).
	FsyncLatency metrics.HistSnapshot `json:"-"`
	// Devices holds the per-device positions, indexed by device id.
	Devices []DeviceStatus `json:"devices"`
}

// Status reports the writer's current position; see Status's fields.
func (w *Writer) Status() Status {
	s := Status{
		Dir:                w.st.Dir,
		Policy:             w.opt.Fsync.String(),
		Recovered:          w.st.Recovered,
		RecoveredEvents:    w.st.Events,
		RecoveredSnapshots: w.st.Snapshots,
		TruncatedBytes:     w.st.TruncatedBytes,
		Appended:           w.appended.Load(),
		Fsyncs:             w.fsyncs.Load(),
		Snapshots:          w.snapshots.Load(),
		Rescues:            w.rescues.Load(),
		FsyncLatency:       w.fsyncLatency.Snapshot(),
		Devices:            make([]DeviceStatus, len(w.devs)),
	}
	if err := w.Err(); err != nil {
		s.Err = err.Error()
	}
	for i, d := range w.devs {
		d.mu.Lock()
		s.Devices[i] = DeviceStatus{
			Device:       d.dev,
			LastSeq:      d.lastSeq,
			SnapshotSeq:  d.snapSeq,
			Segments:     d.segCount,
			Segment:      d.segPath,
			SegmentBytes: d.segBytes,
			LastFsync:    d.lastFsync,
		}
		d.mu.Unlock()
	}
	return s
}

// WriteMetrics appends the writer's /metrics families to a Prometheus
// text scrape: whether this process recovered prior state and how
// much, the cumulative append, fsync, snapshot and rescue counters with
// the fsync latency distribution, and the per-device positions — last
// appended sequence, newest snapshot sequence, segment-file count.
// Compare adaptrm_wal_last_seq against adaptrm_device_event_seq to see
// how far persistence trails the fleet.
func (w *Writer) WriteMetrics(out io.Writer) error {
	ws := w.Status()
	e := metrics.NewEmitter(out)
	recovered := int64(0)
	if ws.Recovered {
		recovered = 1
	}
	e.Family("adaptrm_wal_recovered", "1 when this process recovered state from the data dir.", "gauge")
	e.Int("adaptrm_wal_recovered", recovered)
	e.Family("adaptrm_wal_recovered_events", "Log-tail events replayed at startup.", "gauge")
	e.Int("adaptrm_wal_recovered_events", int64(ws.RecoveredEvents))
	e.Family("adaptrm_wal_recovered_snapshots", "Devices recovered from a snapshot at startup.", "gauge")
	e.Int("adaptrm_wal_recovered_snapshots", int64(ws.RecoveredSnapshots))
	e.Family("adaptrm_wal_truncated_bytes", "Torn-tail bytes physically removed at startup.", "gauge")
	e.Int("adaptrm_wal_truncated_bytes", ws.TruncatedBytes)
	e.Family("adaptrm_wal_appended_total", "Events appended to the log since start.", "counter")
	e.Int("adaptrm_wal_appended_total", ws.Appended)
	e.Family("adaptrm_wal_fsync_total", "Segment fsync calls since start.", "counter")
	e.Int("adaptrm_wal_fsync_total", ws.Fsyncs)
	e.Family("adaptrm_wal_snapshots_total", "Snapshots written since start.", "counter")
	e.Int("adaptrm_wal_snapshots_total", ws.Snapshots)
	e.Family("adaptrm_wal_rescues_total", "Lag rescues (watch overruns absorbed by a snapshot) since start.", "counter")
	e.Int("adaptrm_wal_rescues_total", ws.Rescues)
	e.Family("adaptrm_wal_last_seq", "Last event sequence appended to the log per device.", "gauge")
	for _, d := range ws.Devices {
		e.Int("adaptrm_wal_last_seq", int64(d.LastSeq), metrics.L("device", strconv.Itoa(d.Device)))
	}
	e.Family("adaptrm_wal_snapshot_seq", "Newest on-disk snapshot sequence per device.", "gauge")
	for _, d := range ws.Devices {
		e.Int("adaptrm_wal_snapshot_seq", int64(d.SnapshotSeq), metrics.L("device", strconv.Itoa(d.Device)))
	}
	e.Family("adaptrm_wal_segments", "Segment files on disk per device.", "gauge")
	for _, d := range ws.Devices {
		e.Int("adaptrm_wal_segments", int64(d.Segments), metrics.L("device", strconv.Itoa(d.Device)))
	}
	e.Family("adaptrm_wal_fsync_seconds", "Segment fsync latency.", "histogram")
	e.Histogram("adaptrm_wal_fsync_seconds", ws.FsyncLatency)
	return e.Err()
}

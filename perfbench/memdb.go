package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cods"
)

// memDB is the part every workload shares: the generated dataset, the
// in-memory database under test and its engine configuration, and the
// save → reopen measurement of recover_s and disk_bytes_per_user_byte.
type memDB struct {
	e    *env
	data *dataset
	cfg  cods.Config
	db   *cods.DB
	// afterSave, when set, runs on the saved catalog before it is
	// reopened; the tests use it to lose a row only on disk.
	afterSave func(dir string) error
}

// memConfig is the engine configuration of point-read, star-select and
// evolve: defaults except retention, which keeps evolve's version history
// from growing with the number of cycles run.
var memConfig = cods.Config{RetainVersions: 8}

// load opens an empty in-memory database and bulk-loads R through the
// facade.
func (m *memDB) load() error {
	m.db = cods.Open(m.cfg)
	return m.db.CreateTableFromRows("R", columns, nil, m.data.rows)
}

func (m *memDB) close() error {
	m.db = nil
	return nil
}

// saveAndRecover saves the catalog, reads its size against userBytes,
// the CSV size of the live rows, then reopens it until again says enough
// (each reopen timed) and runs check on the first reopened database.
func (m *memDB) saveAndRecover(userBytes uint64, check func(db *cods.DB) error) error {
	dir := filepath.Join(m.e.dir, "saved")
	if err := m.db.Save(dir); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m.e.rec.diskRatio = float64(n) / float64(userBytes)
	if m.afterSave != nil {
		if err := m.afterSave(dir); err != nil {
			return err
		}
	}
	for i := 0; again(m.e.rec.recovers); i++ {
		runtime.GC() // each reopen starts from a collected heap
		start := time.Now()
		db, err := cods.OpenDir(dir, m.cfg)
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		m.e.rec.recovers = append(m.e.rec.recovers, d)
		if i == 0 {
			m.e.rec.check("recovered", check(db))
		}
	}
	return nil
}

// tableFP reads a whole table page by page and fingerprints its rows.
func tableFP(db *cods.DB, table string) (fingerprint, error) {
	var f fingerprint
	const page = 1 << 16
	for off := uint64(0); ; off += page {
		rows, err := db.Rows(table, off, page)
		if err != nil {
			return f, err
		}
		for _, r := range rows {
			f.add(r)
		}
		if len(rows) < page {
			return f, nil
		}
	}
}

// checkTableFP compares a table's fingerprint with the oracle's.
func checkTableFP(db *cods.DB, table string, want fingerprint) error {
	got, err := tableFP(db, table)
	if err != nil {
		return err
	}
	if got != want {
		return wrongf("table %s holds %v, want %v", table, got, want)
	}
	return nil
}

package processes

import (
	"fmt"

	"repro/internal/mtm"
	"repro/internal/schema"
)

// Definitions holds the instantiated 15 process types of Table I.
type Definitions struct {
	all  []*mtm.Process
	byID map[string]*mtm.Process
}

// New instantiates all process types and validates their definitions.
func New() (*Definitions, error) {
	d := &Definitions{byID: make(map[string]*mtm.Process, 15)}
	d.all = []*mtm.Process{
		newP01(),
		newP02(),
		newP03(),
		newP04(),
		newExtractEurope("P05", schema.LocBerlin, schema.SysBerlinParis),
		newExtractEurope("P06", schema.LocParis, schema.SysBerlinParis),
		newExtractEurope("P07", "", schema.SysTrondheim),
		newP08(),
		newP09(),
		newP10(),
		newP11(),
		newP12(),
		newP13(),
		newP14(),
		newP15(),
	}
	for _, p := range d.all {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("processes: %w", err)
		}
		if _, dup := d.byID[p.ID]; dup {
			return nil, fmt.Errorf("processes: duplicate process id %s", p.ID)
		}
		d.byID[p.ID] = p
	}
	return d, nil
}

// MustNew is New that panics on error.
func MustNew() *Definitions {
	d, err := New()
	if err != nil {
		panic(err)
	}
	return d
}

// All returns the 15 process types in P01..P15 order.
func (d *Definitions) All() []*mtm.Process { return d.all }

// ByID returns the process with the given id, or nil.
func (d *Definitions) ByID(id string) *mtm.Process { return d.byID[id] }

// InventoryRow is one row of the Table I process type inventory.
type InventoryRow struct {
	Group mtm.Group
	ID    string
	Name  string
	Event mtm.EventType
}

// Inventory reproduces Table I: the benchmark process types of groups A,
// B, C and D.
func (d *Definitions) Inventory() []InventoryRow {
	rows := make([]InventoryRow, 0, len(d.all))
	for _, p := range d.all {
		rows = append(rows, InventoryRow{Group: p.Group, ID: p.ID, Name: p.Name, Event: p.Event})
	}
	return rows
}

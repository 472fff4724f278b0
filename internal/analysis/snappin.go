package analysis

import (
	"go/ast"
)

// Snappin enforces the MVCC read contract from DESIGN.md §2.5: outside
// the store package, table data must be resolved through a pinned
// Snapshot/TableSnap. The convenience read accessors on store.Table
// each pin the *current* version, so two successive calls can observe
// different versions — a read path built on them sees torn states
// under concurrent writers (ids from one version indexing rows of
// another). store.TableSnap and store.Snapshot carry the same
// accessors with one pinned version; store.Table.Snap and DB.Snapshot
// produce them. Version probes (Table.Version, DB.TableVersion,
// DB.DataVersion) are not flagged: current-ness is their point — they
// are the invalidation tokens caches revalidate against.
var Snappin = &Analyzer{
	Name: "snappin",
	Doc:  "unpinned store.Table reads outside the store must go through a Snapshot/TableSnap",
	Run:  runSnappin,
}

// snappinTableReads are the store.Table methods that pin a fresh
// version per call. Each has an identically-named equivalent on
// TableSnap.
var snappinTableReads = map[string]bool{
	"Len":             true,
	"Rows":            true,
	"Row":             true,
	"HasIndex":        true,
	"LookupIndex":     true,
	"HasOrderedIndex": true,
	"LookupRange":     true,
	"Stats":           true,
	"Segments":        true,
}

func runSnappin(p *Pass) {
	if p.Pkg.Name() == "store" {
		return // the store's own code manages versions directly
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := p.Info.Selections[sel]
			if s == nil || !snappinTableReads[sel.Sel.Name] {
				return true
			}
			if !isNamed(s.Recv(), "store", "Table") {
				return true
			}
			p.Reportf(sel.Sel.Pos(),
				"store.Table.%s pins its own version per call; pin once (Table.Snap / DB.Snapshot) and read through the TableSnap", sel.Sel.Name)
			return true
		})
	}
}

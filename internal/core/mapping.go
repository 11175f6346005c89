// Package core implements the paper's primary contribution: the hybrid
// JCF–FMCAD framework. JCF is the master — it owns design management,
// versioning, teams, workspaces and flows — and FMCAD is the slave,
// contributing its integrated tools (schematic entry, layout editor,
// digital simulator), extension language and inter-tool communication.
//
// The coupling has four pieces, mirroring sections 2.3 and 2.4:
//
//   - the data-model mapping of Table 1 (this file),
//   - the encapsulation wrappers that run each FMCAD tool as one JCF
//     activity, staging design data between the OMS database and the
//     FMCAD library through the UNIX file system (encapsulation.go),
//   - FML extension-language customization that locks the FMCAD-native
//     data-management menus and installs consistency-window triggers
//     (hybrid.go), and
//   - hierarchy submission from FMCAD's in-design hierarchies into JCF's
//     separated metadata (hierarchy.go).
package core

import (
	"fmt"

	"repro/internal/oms"
)

// MappingRow is one row of Table 1 ("JCF - FMCAD mapping").
type MappingRow struct {
	JCF   string
	FMCAD string
}

// MappingTable returns Table 1 of the paper: how the JCF information model
// maps onto the FMCAD information model.
func MappingTable() []MappingRow {
	return []MappingRow{
		{JCF: "Project", FMCAD: "Library"},
		{JCF: "CellVersion", FMCAD: "Cell"},
		{JCF: "ViewType", FMCAD: "View"},
		{JCF: "DesignObject", FMCAD: "Cellview"},
		{JCF: "DesignObjectVersion", FMCAD: "Cellview Version"},
	}
}

// RenderMappingTable prints Table 1 in the paper's two-column layout.
func RenderMappingTable() string {
	out := fmt.Sprintf("%-22s %s\n", "JCF object", "FMCAD object")
	out += fmt.Sprintf("%-22s %s\n", "----------", "------------")
	for _, row := range MappingTable() {
		out += fmt.Sprintf("%-22s %s\n", row.JCF, row.FMCAD)
	}
	return out
}

// The live mapping state: because Table 1 maps a JCF *CellVersion* onto an
// FMCAD *Cell*, every version of a JCF cell owns a distinct FMCAD cell
// (named <cell>_v<num>). This is precisely what makes "parallel work on
// different versions of the same cellview" possible in the hybrid
// framework while plain FMCAD cannot do it (section 3.1): two designers
// reserve two JCF cell versions and each works in a different FMCAD cell.

// FMCADCellName derives the slave-side cell name for a JCF cell version.
func FMCADCellName(cellName string, versionNum int64) string {
	return fmt.Sprintf("%s_v%d", cellName, versionNum)
}

// Binding describes the mapping state of one design cell. The master's
// store is its only record (jcf.Framework.BindSlaveCell): it is saved with
// the master and replicated with it.
type Binding struct {
	CellVersion oms.OID
	FMCADCell   string
	// DesignObjects maps view type -> JCF design object OID.
	DesignObjects map[string]oms.OID
}

// PropJCFVersion is the FMCAD property the encapsulation writes on every
// cellview version it checks in, binding it to the JCF design object
// version (Table 1's last row) so the slave side stays traceable.
const PropJCFVersion = "jcf.dov"

package analysis

import (
	"go/ast"
)

// Precision flags float64↔float32 conversions inside the kernel
// packages — the code that must stay comparable across the paper's
// single-precision devices (Cell SPE, GPU fragment programs) and the
// double-precision Opteron/MTA baseline. A width change that is neither
// one of the audited widen-compute-narrow helpers nor annotated is how
// "single precision with silent double-precision islands" creeps in and
// quietly invalidates every cross-architecture energy comparison.
//
// Three conversion shapes are flagged: concrete narrowing
// (float32(f64)), concrete widening (float64(f32)), and width changes
// at a generic boundary (float64(x) or T(x) where the other side is a
// vec.Float-style type parameter — exactly what a float32 instantiation
// turns into a widen or narrow). Conversions from integers and untyped
// constants are not width changes and are ignored.
var Precision = &Analyzer{
	Name:  "precision",
	Doc:   "unannotated float64↔float32 conversion in a kernel package",
	Scope: []string{"vec", "spu", "gpu", "cell", "parallel"},
	Run:   runPrecision,
}

// precisionAllowed are the audited widen-compute-narrow helpers: they
// exist precisely to round a double-precision stdlib result back to the
// caller's width (or to cross the declared accumulation boundary), and
// the vec package documents each one. Keyed by package base name and
// function name.
var precisionAllowed = map[[2]string]bool{
	{"vec", "Sqrt"}:      true,
	{"vec", "Copysign"}:  true,
	{"vec", "Floor"}:     true,
	{"vec", "Round"}:     true,
	{"vec", "ToV3f64"}:   true,
	{"vec", "FromV3f64"}: true,
	// Mixed-precision fast-path helpers (PR 6): the audited crossing
	// points between float32 pair geometry and float64 accumulation.
	{"vec", "Widen"}:     true,
	{"vec", "Narrow"}:    true,
	{"vec", "AccumAdd"}:  true,
	{"vec", "AccumSub"}:  true,
	{"spu", "sqrt32"}:    true,
	{"spu", "Copysign"}:  true,
	{"spu", "VCopysign"}: true,
}

func runPrecision(p *Pass) {
	pkgBase := p.Pkg.Name
	for _, f := range p.Pkg.Files {
		for _, fd := range enclosingFuncs(f) {
			if precisionAllowed[[2]string{pkgBase, fd.Name.Name}] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				tv, ok := p.Pkg.Info.Types[call.Fun]
				if !ok || !tv.IsType() {
					return true
				}
				dst := floatWidth(tv.Type)
				src := floatWidth(p.TypeOf(call.Args[0]))
				if dst == notFloat || src == notFloat || dst == src {
					return true
				}
				p.Reportf(call.Pos(),
					"%s→%s conversion in kernel package %s: width changes must be an audited helper or annotated (//mdlint:ignore precision <why>) to keep single/double results comparable",
					widthName(src), widthName(dst), pkgBase)
				return true
			})
		}
	}
}

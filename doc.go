// Package discs is a from-scratch Go reproduction of
//
//	"DISCS: A DIStributed Collaboration System for Inter-AS Spoofing
//	 Defense", Bingyang Liu and Jun Bi, ICPP 2015.
//
// The implementation lives under internal/ (one package per
// subsystem — see DESIGN.md for the inventory), the executables under
// cmd/ and runnable examples under examples/. The repository root
// holds the cross-package tests: the differential oracles and the API
// and example golden files.
package discs

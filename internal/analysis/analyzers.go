package analysis

import "sort"

// registry is the single registration point for the analyzer suite, in
// the order cmd/repolint runs it. Adding an analyzer here is the ONLY
// step needed for it to be enforced everywhere: the cmd/repolint
// multichecker, the CI lint job, the TestRepositoryIsClean gate, waiver
// name validation and the -list output all consume this slice.
var registry = []*Analyzer{
	RNGSource,
	WallTime,
	MapOrder,
	PrintGuard,
	FloatEq,
	PprofImport,
	SeedFlow,
}

// All returns the full analyzer suite in registration order.
func All() []*Analyzer {
	return append([]*Analyzer(nil), registry...)
}

// Names returns the set of registered analyzer names, the vocabulary
// //lint: waivers may reference.
func Names() map[string]bool {
	names := make(map[string]bool, len(registry))
	for _, a := range registry {
		names[a.Name] = true
	}
	return names
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

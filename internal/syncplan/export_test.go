package syncplan

// BuildAllPairs exposes the all-pairs oracle to the external test package,
// which needs the harness presets (harness imports syncplan).
var BuildAllPairs = buildAllPairs

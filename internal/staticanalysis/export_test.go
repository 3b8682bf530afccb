package staticanalysis

// UpdateGolden exposes the -update flag to the external test package.
var UpdateGolden = updateGolden

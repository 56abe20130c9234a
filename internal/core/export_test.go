package core

// UseReferenceAccessPath turns off r's per-thread translation cache so
// every access takes the uncached path, the reference the cache is
// tested against. Call it before r serves its first access.
func UseReferenceAccessPath(r *Runtime) { r.fastPath = false }

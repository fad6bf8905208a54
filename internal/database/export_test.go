package database

// SetBuilt reports whether the named relation's tuple set exists: built by a
// Rel call, or the stored form of a relation without a code space.
func (db *Database) SetBuilt(name string) bool { return db.rels[name].set != nil }

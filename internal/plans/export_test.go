package plans

// SlotWrites returns how many slots of D^Q's layout table f's request has
// written so far; Release forgets it.
func SlotWrites(f *Focal) int { return f.vecs.writes }

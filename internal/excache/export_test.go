package excache

// ReadSegment returns a read-only cache whose index is what reading one
// segment holding data gives, with no directory behind it, so the
// segment fuzzer runs the reader and lookups at memory speed.
func ReadSegment(data []byte) *Cache {
	c := &Cache{mode: ModeRO}
	c.indexOnce.Do(func() {
		c.index = make(map[entryID]record)
		c.indexSegment(data)
	})
	return c
}

package nvm

// Image is an immutable copy of the words of one device byte range
// [lo, hi). It is built once and mapped into any number of devices
// (MapImage), which read its pages in place and copy a page only on their
// first write to it. The words live in a private device that nothing
// writes after NewImage and that holds only the pages with a nonzero
// word, so devices on several goroutines may share one image.
type Image struct {
	dev    *Device
	lo, hi uint64
}

// NewImage returns the image of words placed at device offset lo: word i
// lies at lo+8i.
func NewImage(words []uint64, lo uint64) *Image {
	hi := lo + 8*uint64(len(words))
	img := &Image{dev: NewDevice(NVM, hi), lo: lo, hi: hi}
	for i, w := range words {
		if w != 0 {
			_ = img.dev.Write8(lo+8*uint64(i), w) // inside the device by construction
		}
	}
	return img
}

// Range returns the device byte range [lo, hi) the image covers.
func (img *Image) Range() (lo, hi uint64) { return img.lo, img.hi }

// MapImage makes the device's bytes in the image's range equal the
// image's and leaves every other byte as it was. A page of the range that
// the device holds gets the range's bytes copied into it; every other
// page reads through to the image, and the device copies it on its first
// write to it, so nothing the device does reaches the image. The device
// ends up with the pages it held plus the image's pages, the pages that
// writing the image's nonzero words would have left, at a cost that does
// not depend on how many there are. The mapping counts as a write of the
// range.
//
// The device must have no persist buffer, whose durable line content the
// mapping would bypass, and no base: it is not a crash view and has mapped
// no image before. Either is a caller's bug, and MapImage panics. A range
// past the device's end is an error.
func (d *Device) MapImage(img *Image) error {
	if d.buf != nil {
		panic("nvm: MapImage onto a device with a persist buffer")
	}
	if d.base != nil {
		panic("nvm: MapImage onto a crash view or a device that already mapped an image")
	}
	if err := d.check(img.lo, int(img.hi-img.lo)); err != nil {
		return err
	}
	d.Writes += img.hi - img.lo
	for pn := img.lo / pageSize; pn*pageSize < img.hi; pn++ {
		if p := d.lookup(pn); p != nil {
			a, b := max(img.lo, pn*pageSize), min(img.hi, (pn+1)*pageSize)
			img.dev.readRaw(p[a%pageSize:a%pageSize+b-a], a)
		}
	}
	d.base = img.dev
	return nil
}

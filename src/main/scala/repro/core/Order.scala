package repro.core

/** Sorting of indices by a primitive key, without boxing. */
object Order {

  /** Indices `0 until keys.length` by descending key, equal keys in ascending
    * index: the order `sortBy(i => -keys(i))` gives, in O(n) passes of an LSD
    * radix sort over the keys' bits.
    */
  def descending(keys: Array[Double]): Array[Int] = {
    val n   = keys.length
    var ix  = new Array[Int](n)
    var k   = new Array[Long](n)
    var ix2 = new Array[Int](n)
    var k2  = new Array[Long](n)
    var i = 0
    while (i < n) {
      // Bits of -key whose unsigned order is java.lang.Double.compare's order.
      val b = java.lang.Double.doubleToLongBits(-keys(i))
      k(i) = (if (b < 0) ~b else b ^ Long.MinValue)
      ix(i) = i
      i += 1
    }
    val count = new Array[Int](257)
    var shift = 0
    while (shift < 64) {
      java.util.Arrays.fill(count, 0)
      i = 0
      while (i < n) { count(((k(i) >>> shift) & 0xff).toInt + 1) += 1; i += 1 }
      // A pass where every key has the same byte would not move anything.
      if (!count.contains(n)) {
        var j = 0
        while (j < 256) { count(j + 1) += count(j); j += 1 }
        i = 0
        // Stable scatter: equal bytes keep their order, so ties stay by index.
        while (i < n) {
          val t = ((k(i) >>> shift) & 0xff).toInt
          k2(count(t)) = k(i)
          ix2(count(t)) = ix(i)
          count(t) += 1
          i += 1
        }
        val tk = k; k = k2; k2 = tk
        val ti = ix; ix = ix2; ix2 = ti
      }
      shift += 8
    }
    ix
  }
}

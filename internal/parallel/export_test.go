package parallel

// RadixMin exposes the radix sort's crossover to the external tests.
const RadixMin = radixMin

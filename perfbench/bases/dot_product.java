static long dotProduct(int[] a, int[] b, int n) {
    long result = 0;
    for (int i = 0; i < n; i = i + 1) {
        result = result + a[i] * b[i];
    }
    return result;
}

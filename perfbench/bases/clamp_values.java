static void clampValues(int[] arr, int n, int lo, int hi) {
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] < lo) {
            arr[i] = lo;
        } else if (arr[i] > hi) {
            arr[i] = hi;
        }
    }
}

static int minIndex(int[] arr, int n) {
    int t = 0;
    for (int i = 1; i < n; i = i + 1) {
        if (arr[i] < arr[t]) {
            t = i;
        }
    }
    return t;
}

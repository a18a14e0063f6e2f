static int maxArray(int[] arr, int n) {
    int result = arr[0];
    for (int i = 1; i < n; i = i + 1) {
        if (arr[i] > result) {
            result = arr[i];
        }
    }
    return result;
}

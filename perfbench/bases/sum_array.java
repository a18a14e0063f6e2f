static int sumArray(int[] arr, int n) {
    int result = 0;
    for (int i = 0; i < n; i = i + 1) {
        result = result + arr[i];
    }
    return result;
}
